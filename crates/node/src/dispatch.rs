//! The one job queue and the one lane dispatcher every parallel caller
//! shares: campaigns (`ehsim-core`) and fleets (`ehsim-net`).
//!
//! # Queue
//!
//! [`run_jobs`] is a deterministic self-scheduling queue. Workers claim
//! the next job index from one atomic counter, so a worker that drew
//! short jobs picks up more work, and each result lands in the slot of
//! its job. The output is therefore bit-identical for any thread count,
//! including the sequential path. On failure the error of the
//! **smallest failing job index** wins: claims are issued in index
//! order, so every job below the first failure any worker sees was
//! claimed before it and runs to completion; unclaimed jobs are then
//! abandoned. A caller that wants every job's own result wraps it in
//! `Ok` and scans the output in order.
//!
//! # Dispatcher
//!
//! [`run_lanes`] runs prepared lanes through the batch kernel. It
//! groups the lanes by tick length (the `tick_s` bits), cuts each group
//! into contiguous [`BatchSimulator`] chunks of `ceil(group / threads)`
//! lanes, clamped to `[1, MAX_BATCH_WIDTH]`, and runs every (chunk, run)
//! pair as one queue job. A lane's bits do not depend on the width of
//! the batch it runs in, so the results do not depend on the grouping,
//! the chunking or the thread count.

use crate::batch::{BatchSimulator, Excitation};
use crate::sim::{NodeMetrics, PreparedSimulator};
use crate::{NodeError, Result};
use ehsim_vibration::VibrationSource;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Upper bound on the lane width of one batch chunk: wide enough to keep
/// the lock-step PPU rounds full of independent chains, small enough
/// that a chunk's SoA state stays cache-resident and the chunk count
/// still load-balances across the queue.
pub const MAX_BATCH_WIDTH: usize = 64;

/// Runs `n_jobs` jobs across up to `threads` scoped workers and returns
/// their results in job order, or the error of the smallest failing job
/// (see the module docs).
///
/// # Errors
///
/// The smallest failing job's error. A job slot no worker wrote back is
/// reported as [`NodeError::InvalidParameter`], converted into `E`.
pub fn run_jobs<T, E>(
    n_jobs: usize,
    threads: usize,
    job: impl Fn(usize) -> std::result::Result<T, E> + Sync,
) -> std::result::Result<Vec<T>, E>
where
    T: Send,
    E: Send + From<NodeError>,
{
    let threads = threads.clamp(1, n_jobs.max(1));
    if threads == 1 {
        return (0..n_jobs).map(job).collect();
    }
    let slots: Vec<Mutex<Option<std::result::Result<T, E>>>> =
        (0..n_jobs).map(|_| Mutex::new(None)).collect();
    // Relaxed suffices: the counter and the flag publish no data, since
    // results travel through the slot mutexes and the scope's join.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while !failed.load(Ordering::Relaxed) {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= n_jobs {
                        break;
                    }
                    let r = job(j);
                    if r.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    // Each slot has exactly one writer, so a lock poisoned
                    // by another worker's panic is sound to recover.
                    *slots[j].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                }
            });
        }
    });
    // Claims are a contiguous prefix, so an unclaimed slot can only sit
    // behind a failing one.
    let unclaimed = || Err(NodeError::invalid("job slot left unclaimed by a failed worker").into());
    slots
        .into_iter()
        .map(|slot| {
            let r = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            r.unwrap_or_else(unclaimed)
        })
        .collect()
}

/// One run of every lane: what excites the lanes, and the run durations
/// (s, nondecreasing) at which every lane is snapshotted.
#[derive(Clone, Copy)]
pub struct LaneRun<'a> {
    /// One shared source, or one source per lane.
    pub excitation: Excitation<'a>,
    /// Checkpoint durations (s), nondecreasing; the run ends at the last.
    pub checkpoints: &'a [f64],
}

/// Runs every lane through every run on the batch kernel, using up to
/// `threads` workers, and returns the snapshots indexed
/// `[run][checkpoint][lane]` in lane order.
///
/// Entry `[r][c][i]` is bit-identical to
/// [`PreparedSimulator::run_checkpoints`] of lane `i` under run `r`, at
/// checkpoint `c`: a lane that fails mid-run carries its per-sim error
/// from the failing checkpoint on, and a checkpoint the lane's tick
/// rejects (e.g. one needing more than [`crate::MAX_TICKS`] ticks)
/// carries that error at every checkpoint of the run. Failures never
/// disturb other lanes.
///
/// # Errors
///
/// [`NodeError::InvalidParameter`] if a run has no checkpoints, or an
/// [`Excitation::PerLane`] slice does not hold one source per lane.
pub fn run_lanes(
    lanes: &[PreparedSimulator],
    runs: &[LaneRun<'_>],
    threads: usize,
) -> Result<Vec<Vec<Vec<Result<NodeMetrics>>>>> {
    let malformed = |run: &LaneRun<'_>| {
        run.checkpoints.is_empty()
            || matches!(run.excitation, Excitation::PerLane(s) if s.len() != lanes.len())
    };
    if runs.iter().any(malformed) {
        return Err(NodeError::invalid(
            "every run needs a checkpoint, and one source per lane if not shared",
        ));
    }
    let chunks = plan(lanes, threads).concat();
    let n_runs = runs.len();
    // Job j runs chunk j / n_runs under run j % n_runs and yields its
    // snapshots indexed [checkpoint][chunk lane].
    let mut per_job = run_jobs(chunks.len() * n_runs, threads, |j| {
        let (chunk, run) = (&chunks[j / n_runs], &runs[j % n_runs]);
        let gathered: Vec<&dyn VibrationSource>;
        let excitation = match run.excitation {
            Excitation::PerLane(sources) => {
                gathered = chunk.iter().map(|&i| sources[i]).collect();
                Excitation::PerLane(&gathered)
            }
            shared => shared,
        };
        let snapshots = BatchSimulator::new(chunk.iter().map(|&i| lanes[i].clone()).collect())
            .and_then(|batch| batch.run_checkpoints(excitation, run.checkpoints));
        Ok::<_, NodeError>(
            snapshots.unwrap_or_else(|e| vec![vec![Err(e); chunk.len()]; run.checkpoints.len()]),
        )
    })?;

    // Restore lane order one checkpoint at a time, moving each lane out
    // of its chunk's buffer; the buffers are freed checkpoint by
    // checkpoint, so the results are never held twice.
    let mut chunk_of = vec![0; lanes.len()];
    for (k, chunk) in chunks.iter().enumerate() {
        for &i in chunk {
            chunk_of[i] = k;
        }
    }
    let mut out = Vec::with_capacity(n_runs);
    for (r, run) in runs.iter().enumerate() {
        let mut per_chunk: Vec<_> = (0..chunks.len())
            .map(|k| std::mem::take(&mut per_job[k * n_runs + r]).into_iter())
            .collect();
        let mut snapshots = Vec::with_capacity(run.checkpoints.len());
        for _ in run.checkpoints {
            let mut cursors: Vec<_> = per_chunk
                .iter_mut()
                .map(|checkpoints| checkpoints.next().unwrap_or_default().into_iter())
                .collect();
            let mut at = Vec::with_capacity(lanes.len());
            for &k in &chunk_of {
                let lane = cursors[k].next();
                at.push(lane.ok_or_else(|| NodeError::invalid("a chunk returned too few lanes"))?);
            }
            snapshots.push(at);
        }
        out.push(snapshots);
    }
    Ok(out)
}

/// The dispatch plan: lane indices grouped by `tick_s` bits (groups in
/// order of first appearance), each group cut into contiguous chunks of
/// `ceil(group / threads)` lanes clamped to `[1, MAX_BATCH_WIDTH]`.
/// Lane indices ascend within every group and chunk.
fn plan(lanes: &[PreparedSimulator], threads: usize) -> Vec<Vec<Vec<usize>>> {
    let mut ticks: Vec<u64> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, lane) in lanes.iter().enumerate() {
        let tick = lane.cfg.tick_s.to_bits();
        match ticks.iter().position(|&t| t == tick) {
            Some(g) => groups[g].push(i),
            None => {
                ticks.push(tick);
                groups.push(vec![i]);
            }
        }
    }
    groups
        .into_iter()
        .map(|group| {
            let width = group
                .len()
                .div_ceil(threads.clamp(1, group.len()))
                .clamp(1, MAX_BATCH_WIDTH);
            group.chunks(width).map(<[usize]>::to_vec).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;
    use ehsim_vibration::{Envelope, Sine};

    #[test]
    fn queue_results_are_thread_count_invariant() {
        let job = |j: usize| Ok::<_, NodeError>((j as f64).sqrt().to_bits());
        let seq = run_jobs(97, 1, job).unwrap();
        for threads in [2, 3, 8] {
            assert_eq!(
                seq,
                run_jobs(97, threads, job).unwrap(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn queue_runs_every_job_whose_result_is_wrapped() {
        let job = |j: usize| {
            if j % 5 == 2 {
                Err(NodeError::invalid(format!("job {j}")))
            } else {
                Ok(j * j)
            }
        };
        for threads in [1, 2, 8] {
            let out = run_jobs(31, threads, |j| Ok::<_, NodeError>(job(j))).unwrap();
            assert_eq!(out.len(), 31);
            for (j, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!((j % 5, *v), (j % 5, j * j)),
                    Err(NodeError::InvalidParameter { message }) => {
                        assert_eq!((j % 5, message.as_str()), (2, format!("job {j}").as_str()))
                    }
                    Err(other) => panic!("unexpected error {other:?}"),
                }
            }
        }
    }

    #[test]
    fn queue_smallest_failing_job_wins_at_any_thread_count() {
        for threads in [1, 2, 8] {
            // With several workers, job 3 does not return before job 10
            // has failed, so a later failure is always seen first; job
            // 3's error must still win.
            let job_10_failed = AtomicBool::new(false);
            let job = |j: usize| {
                if j == 3 && threads > 1 {
                    while !job_10_failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                if j == 10 {
                    job_10_failed.store(true, Ordering::SeqCst);
                }
                if j % 7 == 3 {
                    Err(NodeError::invalid(format!("job {j}")))
                } else {
                    Ok(j)
                }
            };
            match run_jobs(40, threads, job) {
                Err(NodeError::InvalidParameter { message }) => {
                    assert_eq!(message, "job 3", "{threads} threads")
                }
                other => panic!("{threads} threads: expected job-3 failure, got {other:?}"),
            }
        }
    }

    /// Emits a non-finite envelope frequency from `t_poison` on, which
    /// fails a lane's harvester model at that tick.
    struct PoisonAfter {
        inner: Sine,
        t_poison: f64,
    }

    impl VibrationSource for PoisonAfter {
        fn acceleration(&self, t: f64) -> f64 {
            self.inner.acceleration(t)
        }
        fn envelope(&self, t: f64) -> Envelope {
            let mut env = self.inner.envelope(t);
            if t >= self.t_poison {
                env.freq_hz = f64::INFINITY;
            }
            env
        }
    }

    /// `n` lanes over three tick lengths, with varied storage so lanes
    /// differ.
    fn mixed_lanes(n: usize) -> Vec<PreparedSimulator> {
        (0..n)
            .map(|i| {
                let mut cfg = NodeConfig::default_node();
                cfg.tick_s = match i % 5 {
                    0 | 3 => 0.25,
                    1 => 0.2,
                    _ => 0.5,
                };
                cfg.storage.capacitance = 0.05 + 0.01 * i as f64;
                PreparedSimulator::new(cfg).unwrap()
            })
            .collect()
    }

    fn tick(lane: &PreparedSimulator) -> u64 {
        lane.cfg.tick_s.to_bits()
    }

    #[test]
    fn plan_groups_by_tick_program_into_ascending_chunks() {
        let lanes = mixed_lanes(300);
        let mut ticks: Vec<u64> = Vec::new();
        for lane in &lanes {
            if !ticks.contains(&tick(lane)) {
                ticks.push(tick(lane));
            }
        }
        assert_eq!(ticks.len(), 3);
        for threads in [1, 2, 8] {
            let plan = plan(&lanes, threads);
            assert_eq!(plan.len(), ticks.len(), "one chunk list per tick length");
            for (group, &t) in plan.iter().zip(&ticks) {
                let members: Vec<usize> = group.concat();
                let want: Vec<usize> = (0..lanes.len()).filter(|&i| tick(&lanes[i]) == t).collect();
                assert_eq!(members, want, "{threads} threads: ascending group");
                let width = want.len().div_ceil(threads).clamp(1, MAX_BATCH_WIDTH);
                for (k, chunk) in group.iter().enumerate() {
                    assert!(!chunk.is_empty() && chunk.len() <= MAX_BATCH_WIDTH);
                    if k + 1 < group.len() {
                        assert_eq!(chunk.len(), width, "{threads} threads: chunk {k}");
                    }
                }
            }
        }
        // A single-tick set keeps contiguous lane ranges.
        let lanes: Vec<PreparedSimulator> = (0..150)
            .map(|_| PreparedSimulator::new(NodeConfig::default_node()).unwrap())
            .collect();
        let ranges: Vec<(usize, usize)> = plan(&lanes, 2)[0]
            .iter()
            .map(|c| (c[0], c[c.len() - 1] + 1))
            .collect();
        assert_eq!(ranges, [(0, 64), (64, 128), (128, 150)]);
        assert_eq!(plan(&lanes, 8)[0].len(), 8, "19-lane chunks");
    }

    #[test]
    fn lanes_match_per_sim_checkpoints_at_any_thread_count() {
        let lanes = mixed_lanes(13);
        let sine = Sine::new(0.9, 64.0).unwrap();
        let shared_poison = PoisonAfter {
            inner: sine,
            t_poison: 15.0,
        };
        let per_lane_sources: Vec<Box<dyn VibrationSource>> = (0..lanes.len())
            .map(|i| -> Box<dyn VibrationSource> {
                let inner = Sine::new(0.7 + 0.02 * i as f64, 62.0 + 0.5 * i as f64).unwrap();
                if i % 5 == 2 {
                    Box::new(PoisonAfter {
                        inner,
                        t_poison: 12.0,
                    })
                } else {
                    Box::new(inner)
                }
            })
            .collect();
        let per_lane: Vec<&dyn VibrationSource> =
            per_lane_sources.iter().map(|s| s.as_ref()).collect();
        let runs = [
            LaneRun {
                excitation: Excitation::Shared(&sine),
                checkpoints: &[5.0, 20.0, 20.0, 33.3],
            },
            LaneRun {
                excitation: Excitation::PerLane(&per_lane),
                checkpoints: &[10.0, 25.0],
            },
            LaneRun {
                excitation: Excitation::Shared(&shared_poison),
                checkpoints: &[7.0, 30.0],
            },
            // Rejected by every lane's tick: the error fills the run.
            LaneRun {
                excitation: Excitation::PerLane(&per_lane),
                checkpoints: &[6.0, 2.0],
            },
        ];
        let oracle: Vec<Vec<Vec<String>>> = runs
            .iter()
            .map(|run| {
                let per_sim: Vec<Result<Vec<Result<NodeMetrics>>>> = lanes
                    .iter()
                    .enumerate()
                    .map(|(i, lane)| {
                        let source = match run.excitation {
                            Excitation::Shared(s) => s,
                            Excitation::PerLane(s) => s[i],
                        };
                        lane.run_checkpoints(source, run.checkpoints)
                    })
                    .collect();
                (0..run.checkpoints.len())
                    .map(|c| {
                        per_sim
                            .iter()
                            .map(|r| match r {
                                Ok(snapshots) => format!("{:?}", snapshots[c]),
                                Err(e) => format!("{:?}", Err::<NodeMetrics, _>(e)),
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let failures = oracle.iter().flatten().flatten();
        assert!(failures.clone().any(|s| s.contains("Err(Model(")));
        assert!(failures.clone().any(|s| s.contains("nondecreasing")));
        assert!(failures.clone().any(|s| s.starts_with("Ok")));
        for threads in [1, 2, 8] {
            let got = run_lanes(&lanes, &runs, threads).unwrap();
            let got: Vec<Vec<Vec<String>>> = got
                .iter()
                .map(|run| {
                    run.iter()
                        .map(|cp| cp.iter().map(|r| format!("{r:?}")).collect())
                        .collect()
                })
                .collect();
            assert_eq!(got, oracle, "{threads} threads");
        }
    }

    #[test]
    fn malformed_runs_are_rejected() {
        let lanes = mixed_lanes(3);
        let sine = Sine::new(0.9, 64.0).unwrap();
        let empty = LaneRun {
            excitation: Excitation::Shared(&sine),
            checkpoints: &[],
        };
        assert!(run_lanes(&lanes, &[empty], 2).is_err());
        let too_few: [&dyn VibrationSource; 2] = [&sine, &sine];
        let short = LaneRun {
            excitation: Excitation::PerLane(&too_few),
            checkpoints: &[5.0],
        };
        assert!(run_lanes(&lanes, &[short], 2).is_err());
        let none = run_lanes(&[], &[empty, short], 2);
        assert!(none.is_err(), "run-level checks precede the lane count");
        let ok = LaneRun {
            excitation: Excitation::Shared(&sine),
            checkpoints: &[5.0],
        };
        let out = run_lanes(&[], &[ok], 2).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0][0].is_empty());
    }
}
