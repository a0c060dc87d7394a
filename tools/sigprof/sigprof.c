/* A PC-sampling profiler in one preloaded object: no perf, no ptrace, no
 * change to the profiled binary.
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   PROF_OUT=prof.txt LD_PRELOAD=./sigprof.so <program> <args>
 *
 * The constructor arms ITIMER_PROF, which counts the CPU time of the whole
 * process and delivers SIGPROF to whichever thread is running; the handler
 * stores that thread's program counter. At exit the destructor writes
 * /proc/self/maps, a line "samples", and one hex address a line to
 * $PROF_OUT (default sigprof.out) for symbolize.py. x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)

static uint64_t samples[MAX_SAMPLES];
static volatile uint32_t next_sample;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    /* Threads race for slots; a slot is written by the one that took it. */
    uint32_t slot = __atomic_fetch_add(&next_sample, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES)
        samples[slot] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void sigprof_start(void) {
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_sigprof;
    /* SA_RESTART: the profiled program must not see EINTR it never had. */
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    /* 1 ms asked for; the kernel rounds up to its own tick. */
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sigprof_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fputs("samples\n", out);
    uint32_t taken = next_sample < MAX_SAMPLES ? next_sample : MAX_SAMPLES;
    for (uint32_t i = 0; i < taken; i++)
        fprintf(out, "%llx\n", (unsigned long long)samples[i]);
    fclose(out);
}
