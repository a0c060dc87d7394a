//! Durable job records: what the service writes into the
//! [`hyperspace_store::JobStore`] and how a restarted process turns the
//! bytes back into a runnable job.
//!
//! A record is the manifest payload for one job: a versioned header,
//! the job's *spec* (workload + machine configuration, rendered through
//! the canonical `Display`/`FromStr` spec grammar), its progress floor
//! (the step count of its last durable checkpoint barrier), and — when
//! the workload's state is byte-serialisable — its latest checkpoint
//! bytes. Recovery re-submits the spec and deterministically replays to
//! the floor (the PR 5 crash-restart path), so the recovered
//! `RunSummary` is bit-identical to an uninterrupted run.
//!
//! Closure-backed workloads ([`JobKind::Erased`] /
//! [`JobKind::ErasedFactory`]) hold live `FnOnce` state the process
//! cannot serialise; [`encode_spec`] returns `None` for them and they
//! simply do not survive a process kill (they *do* still survive worker
//! crashes in-process, via the factory).
//!
//! Deadlines are deliberately not persisted: a wall-clock budget
//! measured from the original submission is meaningless after a restart
//! of unknown delay, and silently re-arming it would time out every
//! recovered job.

use std::str::FromStr;

use hyperspace_apps::{Item, TspInstance, TSP_MAX_CITIES};
use hyperspace_core::{
    BackendSpec, CheckpointSpec, JobParams, MapperSpec, ObjectiveSpec, PortfolioSpec, PruneSpec,
    TopologySpec,
};
use hyperspace_sat::{dimacs, Heuristic, SimplifyMode};
use hyperspace_sim::codec::{Reader, Writer};
use hyperspace_sim::{Codec, CodecError};

use crate::job::JobKind;

/// Version of the record payload layout (independent of the manifest
/// header version: the store frames bytes, this module fills them).
/// Version 2 appended an optional strategy-expression slot after the
/// portfolio; version-1 records (no such slot) still decode. The writer
/// leaves the slot empty — expressions are lowered into the portfolio
/// before they reach a record — and the reader lowers a filled one, so
/// records written before that still decode to the same computation.
pub const RECORD_VERSION: u32 = 2;

/// A job reconstructed from its durable record.
pub struct RecoveredJob {
    /// Queue priority of the original submission.
    pub priority: i32,
    /// The workload, rebuilt from its canonical encoding.
    pub kind: JobKind,
    /// Machine/run configuration of the original submission.
    pub params: JobParams,
    /// Step count of the last durable checkpoint barrier — the replay
    /// floor recovery resumes past.
    pub checkpoint_steps: u64,
    /// Latest serialised checkpoint bytes, when the workload's slice
    /// state is byte-serialisable (reserved: every slice persists `None`,
    /// and recovery replays deterministically from the spec instead).
    /// A persistable job's node states are plain data, but nothing can
    /// encode them yet: there is no `Codec` for `RecState`, `MapState`,
    /// mapper state, or the programs' `Arg`/`Out` types.
    pub checkpoint: Option<Vec<u8>>,
    /// The record's spec bytes, verbatim — reused by the recovered
    /// job's subsequent barrier persists (the spec never changes over a
    /// job's lifetime, so re-encoding it would be wasted work).
    pub spec_bytes: Vec<u8>,
}

fn invalid(what: impl std::fmt::Display) -> CodecError {
    CodecError::Invalid(what.to_string())
}

fn put_str(w: &mut Writer, s: impl ToString) {
    s.to_string().encode(w);
}

fn get_parsed<T>(r: &mut Reader<'_>, what: &str) -> Result<T, CodecError>
where
    T: FromStr,
    T::Err: std::fmt::Display,
{
    let s = String::decode(r)?;
    s.parse()
        .map_err(|err| invalid(format!("{what} `{s}`: {err}")))
}

/// Encodes the immutable half of a job's durable record — priority,
/// workload, machine configuration — or `None` when the workload is
/// closure-backed and cannot be persisted. Called once at submission;
/// the bytes are reused verbatim by every subsequent barrier persist.
pub fn encode_spec(priority: i32, kind: &JobKind, params: &JobParams) -> Option<Vec<u8>> {
    let mut w = Writer::new();
    w.put_u32(RECORD_VERSION);
    w.put_i64(i64::from(priority));
    match kind {
        JobKind::Sat {
            cnf,
            heuristic,
            mode,
        } => {
            w.put_u8(0);
            put_str(&mut w, dimacs::to_string(cnf));
            put_str(&mut w, heuristic);
            put_str(&mut w, mode);
        }
        JobKind::Knapsack { items, capacity } => {
            w.put_u8(1);
            encode_items(&mut w, items, *capacity);
        }
        JobKind::BnbKnapsack { items, capacity } => {
            w.put_u8(2);
            encode_items(&mut w, items, *capacity);
        }
        JobKind::Tsp { inst } => {
            w.put_u8(3);
            w.put_u64(inst.n as u64);
            inst.dist.encode(&mut w);
        }
        JobKind::NQueens { n } => {
            w.put_u8(4);
            w.put_u8(*n);
        }
        JobKind::Fib { n } => {
            w.put_u8(5);
            w.put_u64(*n);
        }
        JobKind::Sum { n } => {
            w.put_u8(6);
            w.put_u64(*n);
        }
        // Live closures: not serialisable, not recoverable across a
        // process kill.
        JobKind::Erased { .. } | JobKind::ErasedFactory { .. } => return None,
    }
    put_str(&mut w, &params.topology);
    put_str(&mut w, &params.mapper);
    put_str(&mut w, &params.backend);
    params.cancellation.encode(&mut w);
    put_str(&mut w, params.objective);
    put_str(&mut w, params.prune);
    put_str(&mut w, params.checkpoint);
    w.put_u64(params.max_steps);
    w.put_u32(params.root_node);
    params
        .portfolio
        .as_ref()
        .map(|p| p.to_string())
        .encode(&mut w);
    // The version-2 strategy slot: always empty now (see RECORD_VERSION).
    None::<String>.encode(&mut w);
    Some(w.into_bytes())
}

fn encode_items(w: &mut Writer, items: &[Item], capacity: u32) {
    let pairs: Vec<(u32, u32)> = items.iter().map(|i| (i.weight, i.value)).collect();
    pairs.encode(w);
    w.put_u32(capacity);
}

fn decode_items(r: &mut Reader<'_>) -> Result<(Vec<Item>, u32), CodecError> {
    let pairs = Vec::<(u32, u32)>::decode(r)?;
    let items = pairs
        .into_iter()
        .map(|(weight, value)| Item { weight, value })
        .collect();
    Ok((items, r.get_u32()?))
}

/// Assembles a full record payload: the (pre-encoded) spec, the current
/// progress floor, and optional checkpoint bytes.
pub fn encode_record(
    spec_bytes: &[u8],
    checkpoint_steps: u64,
    checkpoint: Option<&[u8]>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(spec_bytes);
    w.put_u64(checkpoint_steps);
    checkpoint.map(|b| b.to_vec()).encode(&mut w);
    w.into_bytes()
}

/// Decodes a record payload back into a runnable job. Corruption-safe:
/// every length is bounded by the input, every parsed spec string is
/// validated through its `FromStr` grammar — a strategy expression is
/// also lowered, into [`JobParams::portfolio`] — and structurally
/// impossible values (a TSP matrix that is not `n x n`, an unknown
/// workload tag, an expression that does not lower, a record naming its
/// members twice) error instead of panicking downstream. Whether the
/// decoded portfolio fits the decoded workload is the service's
/// submission check, which recovery runs on every decoded record.
pub fn decode_record(payload: &[u8]) -> Result<RecoveredJob, CodecError> {
    let mut r = Reader::new(payload);
    let spec_bytes = r.get_bytes()?;
    let checkpoint_steps = r.get_u64()?;
    let checkpoint = Option::<Vec<u8>>::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(invalid(format!(
            "{} trailing bytes after the job record",
            r.remaining()
        )));
    }

    let mut r = Reader::new(spec_bytes);
    let version = r.get_u32()?;
    if !(1..=RECORD_VERSION).contains(&version) {
        return Err(invalid(format!(
            "unsupported job record version {version} (expected 1..={RECORD_VERSION})"
        )));
    }
    let priority = r.get_i64()?;
    let priority = i32::try_from(priority)
        .map_err(|_| invalid(format!("priority {priority} out of i32 range")))?;
    let tag = r.get_u8()?;
    let kind = match tag {
        0 => {
            let text = String::decode(&mut r)?;
            let cnf = dimacs::parse(&text).map_err(|err| invalid(format!("dimacs: {err}")))?;
            let heuristic: Heuristic = get_parsed(&mut r, "heuristic")?;
            let mode: SimplifyMode = get_parsed(&mut r, "simplify mode")?;
            JobKind::Sat {
                cnf,
                heuristic,
                mode,
            }
        }
        1 => {
            let (items, capacity) = decode_items(&mut r)?;
            JobKind::Knapsack { items, capacity }
        }
        2 => {
            let (items, capacity) = decode_items(&mut r)?;
            JobKind::BnbKnapsack { items, capacity }
        }
        3 => {
            // Submission refuses an instance a task cannot search, so no
            // record holds one. Bounding `n` before `n * n` keeps that
            // multiplication, and the allocation it implies, out of
            // attacker-controlled range.
            let n = r.get_u64()?;
            if n > TSP_MAX_CITIES as u64 {
                return Err(invalid(format!(
                    "tsp city count {n} exceeds {TSP_MAX_CITIES}"
                )));
            }
            let n = n as usize;
            let dist = Vec::<u64>::decode(&mut r)?;
            // Validate before TspInstance::new, which asserts.
            if dist.len() != n * n {
                return Err(invalid(format!(
                    "tsp distance matrix has {} cells for {n} cities (need {})",
                    dist.len(),
                    n * n
                )));
            }
            JobKind::Tsp {
                inst: TspInstance::new(n, dist),
            }
        }
        4 => JobKind::NQueens { n: r.get_u8()? },
        5 => JobKind::Fib { n: r.get_u64()? },
        6 => JobKind::Sum { n: r.get_u64()? },
        other => return Err(invalid(format!("unknown workload tag {other}"))),
    };

    let topology = get_parsed::<TopologySpec>(&mut r, "topology")?;
    let mapper = get_parsed::<MapperSpec>(&mut r, "mapper")?;
    let backend = get_parsed::<BackendSpec>(&mut r, "backend")?;
    let cancellation = bool::decode(&mut r)?;
    let objective = get_parsed::<ObjectiveSpec>(&mut r, "objective")?;
    let prune = get_parsed::<PruneSpec>(&mut r, "prune")?;
    let checkpoint_spec = get_parsed::<CheckpointSpec>(&mut r, "checkpoint")?;
    let max_steps = r.get_u64()?;
    let root_node = r.get_u32()?;
    // Both slots hold portfolio text in the one `PortfolioSpec` grammar
    // (flat or expression; an expression is lowered by the parse).
    let folio = |r: &mut Reader<'_>, what: &str| -> Result<Option<PortfolioSpec>, CodecError> {
        Option::<String>::decode(r)?
            .map(|s| {
                s.parse()
                    .map_err(|err| invalid(format!("{what} `{s}`: {err}")))
            })
            .transpose()
    };
    let portfolio = folio(&mut r, "portfolio")?;
    // Version 1 records predate the strategy slot and simply end here;
    // the slot was appended, so earlier offsets are unchanged.
    let strategy = if version >= 2 {
        folio(&mut r, "strategy")?
    } else {
        None
    };
    if portfolio.is_some() && strategy.is_some() {
        return Err(invalid(
            "record names its members twice: portfolio and strategy slots both filled",
        ));
    }
    let portfolio = portfolio.or(strategy);
    let params = JobParams {
        topology,
        mapper,
        backend,
        cancellation,
        objective,
        prune,
        checkpoint: checkpoint_spec,
        max_steps,
        root_node,
        portfolio,
        ..JobParams::default()
    };
    if r.remaining() != 0 {
        return Err(invalid(format!(
            "{} trailing bytes after the job spec",
            r.remaining()
        )));
    }
    Ok(RecoveredJob {
        priority,
        kind,
        params,
        checkpoint_steps,
        checkpoint,
        spec_bytes: spec_bytes.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_sat::gen;

    fn sat_spec() -> (i32, JobKind, JobParams) {
        let kind = JobKind::sat_with(gen::uf20_91(3), Heuristic::Dlis, SimplifyMode::SplitOnly);
        let params = JobParams {
            checkpoint: CheckpointSpec::every(256),
            max_steps: 123_456,
            cancellation: true,
            ..JobParams::default()
        };
        (7, kind, params)
    }

    #[test]
    fn records_round_trip_for_every_persistable_kind() {
        let kinds = vec![
            JobKind::sat(gen::uf20_91(1)),
            JobKind::knapsack(
                vec![
                    Item {
                        weight: 2,
                        value: 3,
                    },
                    Item {
                        weight: 5,
                        value: 8,
                    },
                ],
                7,
            ),
            JobKind::bnb_knapsack(
                vec![Item {
                    weight: 1,
                    value: 1,
                }],
                4,
            ),
            JobKind::tsp(TspInstance::random(1, 5, 30)),
            JobKind::nqueens(6),
            JobKind::fib(17),
            JobKind::sum(1000),
        ];
        for kind in kinds {
            let label = kind.label();
            let spec = encode_spec(-3, &kind, &JobParams::default())
                .unwrap_or_else(|| panic!("{label} is persistable"));
            let payload = encode_record(&spec, 512, None);
            let back = decode_record(&payload).expect("decodes");
            assert_eq!(back.priority, -3, "{label}");
            assert_eq!(back.kind.label(), label);
            assert_eq!(back.checkpoint_steps, 512);
            assert!(back.checkpoint.is_none());
            // The recovered spec is the same computation: cache keys
            // agree (the strongest canonical-equality check available).
            use crate::job::JobSpec;
            let original = JobSpec {
                kind: kind.try_clone().expect("clonable"),
                params: JobParams::default(),
            };
            let recovered = JobSpec {
                kind: back.kind,
                params: back.params,
            };
            assert_eq!(original.cache_key(), recovered.cache_key(), "{label}");
        }
    }

    #[test]
    fn params_and_checkpoint_bytes_survive() {
        let (priority, kind, params) = sat_spec();
        let spec = encode_spec(priority, &kind, &params).expect("persistable");
        let payload = encode_record(&spec, 2048, Some(b"checkpoint-bytes"));
        let back = decode_record(&payload).expect("decodes");
        assert_eq!(back.priority, 7);
        assert_eq!(back.params.checkpoint, params.checkpoint);
        assert_eq!(back.params.max_steps, 123_456);
        assert!(back.params.cancellation);
        assert_eq!(back.checkpoint_steps, 2048);
        assert_eq!(back.checkpoint.as_deref(), Some(&b"checkpoint-bytes"[..]));
    }

    #[test]
    fn expression_born_portfolios_survive_persistence() {
        // `or(...)` lowers to a two-attempt chain, so the flat rendering
        // the record carries has to keep `>>` and the member backend.
        let folio: PortfolioSpec =
            "portfolio(or(limit(discrepancy,2,backend(sharded:2)),mesh),restart(luby:64,cdcl))"
                .parse()
                .expect("valid expression");
        let kind = JobKind::sat(gen::uf20_91(4));
        let params = JobParams {
            portfolio: Some(folio.clone()),
            ..JobParams::default()
        };
        let spec = encode_spec(0, &kind, &params).expect("persistable");
        let back = decode_record(&encode_record(&spec, 0, None)).expect("decodes");
        assert_eq!(back.params.portfolio, Some(folio));
    }

    #[test]
    fn version_1_records_without_a_strategy_still_decode() {
        // A version-1 spec is exactly a version-2 spec minus the
        // trailing strategy option: strip the appended None tag, stamp
        // the old version, and the decoder must accept it unchanged.
        let (priority, kind, params) = sat_spec();
        let spec = encode_spec(priority, &kind, &params).expect("persistable");
        assert_eq!(*spec.last().expect("non-empty"), 0, "trailing None tag");
        let mut v1 = spec[..spec.len() - 1].to_vec();
        v1[0..4].copy_from_slice(&1u32.to_le_bytes());
        let back = decode_record(&encode_record(&v1, 64, None)).expect("v1 decodes");
        assert_eq!(back.priority, 7);
        assert!(back.params.portfolio.is_none());
        assert_eq!(back.params.max_steps, 123_456);
    }

    #[test]
    fn closure_backed_kinds_are_not_persistable() {
        use hyperspace_core::ErasedStackJob;
        use hyperspace_recursion::{FnProgram, Rec};
        let factory = JobKind::erased_with_factory("made", || {
            ErasedStackJob::new(
                FnProgram::new(|n: u64| -> Rec<u64, u64> { Rec::done(n) }),
                3,
            )
        });
        assert!(encode_spec(0, &factory, &JobParams::default()).is_none());
    }

    #[test]
    fn every_truncation_errors() {
        let (priority, kind, params) = sat_spec();
        let spec = encode_spec(priority, &kind, &params).expect("persistable");
        let payload = encode_record(&spec, 64, Some(&[1, 2, 3]));
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_err(), "{cut}");
        }
    }

    #[test]
    fn forged_tsp_dimensions_error_instead_of_panicking() {
        // A 3-city instance whose persisted `n` is inflated: the decoder
        // must reject it before TspInstance::new's assert.
        let inst = TspInstance::random(9, 3, 10);
        let spec = encode_spec(0, &JobKind::tsp(inst), &JobParams::default()).expect("persistable");
        // n sits right after version(4) + priority(8) + tag(1).
        let mut forged = spec.clone();
        forged[13..21].copy_from_slice(&4u64.to_le_bytes());
        let payload = encode_record(&forged, 0, None);
        assert!(decode_record(&payload).is_err());
        // And an absurd n fails the explicit bound, not the multiply.
        let mut huge = spec;
        huge[13..21].copy_from_slice(&u64::MAX.to_le_bytes());
        let payload = encode_record(&huge, 0, None);
        assert!(decode_record(&payload).is_err());
    }

    #[test]
    fn unknown_versions_and_tags_error() {
        let (priority, kind, params) = sat_spec();
        let spec = encode_spec(priority, &kind, &params).expect("persistable");
        let mut bad_version = spec.clone();
        bad_version[0..4].copy_from_slice(&99u32.to_le_bytes());
        assert!(decode_record(&encode_record(&bad_version, 0, None)).is_err());
        let mut bad_tag = spec;
        bad_tag[12] = 0xFF;
        assert!(decode_record(&encode_record(&bad_tag, 0, None)).is_err());
    }
}
