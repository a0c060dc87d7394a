//! Hardness-banded instance pools.
//!
//! Random SAT and branch-and-bound instances of one size differ in cost
//! by an order of magnitude, so a suite drawn straight from a seed would
//! make every timing depend more on the seed than on the code. Instead
//! a workload draws its suite with `--seed` from a pool of generator
//! seeds whose instances cost about the same. Different seeds still give
//! different instances, but about the same work.
//!
//! The pools are data, cut once at the commit that added the benchmark:
//! generator seeds were scanned upwards from 0, each candidate was run
//! once exactly as its workload runs it, and a seed was kept when every
//! simulated counter named on its pool fell inside the band given there,
//! until the pool was full. The counters are simulated, not timed, so the
//! cut does not depend on the machine. It does depend on the generators
//! and on the search as it was then: a later change to the search shape
//! moves every instance's cost and shows in `sim_steps_per_op`, and the
//! pools stay as they are, so results stay comparable across that change.

/// 60 of the first 1918 seeds: clause visits in 680000..=740000,
/// activations in 16000..=19000, steps in 430..=570. A clause visit is
/// one clause of the sub-problem an activation is started on: an
/// activation's host cost is mostly cloning and scanning its residual
/// formula, so the summed count tracks wall time to within a few percent
/// where equal activation counts can differ by half.
pub const MESH_SAT: &[u64] = &[
    8, 27, 68, 108, 194, 236, 264, 388, 406, 455, 459, 508, 516, 534, 568, 611, 637, 679, 784, 830,
    898, 920, 956, 1006, 1023, 1038, 1051, 1082, 1135, 1183, 1190, 1193, 1245, 1251, 1263, 1276,
    1295, 1297, 1335, 1340, 1375, 1433, 1439, 1455, 1462, 1585, 1595, 1626, 1701, 1726, 1730, 1757,
    1762, 1789, 1822, 1849, 1876, 1886, 1907, 1917,
];

/// 36 of the first 159 seeds: activations in 2450..=2700, steps in
/// 730..=790.
pub const BNB_KNAPSACK: &[u64] = &[
    6, 11, 13, 15, 19, 20, 30, 33, 38, 40, 44, 47, 54, 65, 67, 68, 87, 88, 91, 94, 98, 108, 109,
    111, 119, 124, 128, 129, 133, 137, 141, 142, 148, 149, 152, 158,
];

/// 24 of the first 157 seeds: activations in 2300..=2600, steps in
/// 1020..=1110.
pub const BNB_TSP: &[u64] = &[
    9, 11, 24, 27, 32, 37, 45, 50, 52, 59, 60, 100, 107, 122, 123, 127, 133, 135, 137, 143, 144,
    148, 153, 156,
];

/// 60 of the first 242 seeds: expanded nodes in 350..=460, winner's
/// finish units in 13..=19.
pub const PORTFOLIO_SAT: &[u64] = &[
    3, 6, 7, 8, 15, 21, 27, 32, 34, 36, 37, 40, 41, 54, 55, 75, 80, 84, 85, 98, 102, 103, 107, 111,
    113, 114, 115, 116, 118, 121, 123, 127, 131, 132, 143, 145, 147, 150, 152, 153, 160, 165, 166,
    167, 169, 171, 177, 180, 182, 187, 192, 197, 206, 208, 212, 221, 225, 232, 234, 241,
];
