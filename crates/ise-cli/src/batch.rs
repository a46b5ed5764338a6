//! The batch runner: plans each corpus block, runs every block through
//! [`ise_enum::par::run_blocks`] (one work-stealing pool over dynamically splittable
//! (block, task) items), and finalizes each block into a [`BlockOutcome`].
//!
//! Blocks at or above [`BatchConfig::par_threshold`] vertices fan out into at most
//! [`MAX_TASKS_PER_BLOCK`] first-output tasks, re-split past
//! [`BatchConfig::split_threshold`] search nodes; smaller blocks run whole.
//!
//! **Determinism.** The fan-out plan, the per-task budget split and the split
//! threshold are functions of the block and the configuration alone — never of the
//! thread count — suspension points are a pure function of each task's own search,
//! and the sharded task merge is deterministic, so every count in the output is
//! byte-identical for any `--threads` value. Unbudgeted fanned-out blocks reproduce
//! the serial enumeration exactly, statistics included; budgeted ones split the
//! block budget evenly across the *static* tasks (each subtree truncated
//! independently, budget exhaustion suppressing any further splits), which is
//! deterministic but intentionally not identical to a serially budgeted run.

use std::time::Duration;

use ise_corpus::CorpusBlock;
use ise_enum::par::{run_blocks, BlockJob, BlockRun};
use ise_enum::{
    select_ises, Constraints, DedupMode, EngineOptions, EnumContext, Enumeration, PruningConfig,
    Selection,
};
use ise_graph::{Dfg, LatencyModel};
use ise_obs::Recorder;

/// Blocks with at least this many vertices fan out into first-output tasks by
/// default (`--par-threshold` overrides).
pub const DEFAULT_PAR_THRESHOLD: usize = 64;

/// Upper bound on the number of *static* tasks one block fans out into. A constant
/// (not a function of the thread count!) so that budgeted runs are byte-identical
/// for any `--threads` value; 16 tasks keep every realistic worker count fed while
/// bounding the per-block merge state. Recursive splitting can grow the final task
/// count past this, but only as a function of the block and the flags.
pub const MAX_TASKS_PER_BLOCK: usize = 16;

/// Default node-count threshold past which a task re-splits at its next decision
/// level (`--split-threshold` overrides; `0` disables splitting). High enough that
/// default budgeted sweeps (whose per-task budgets are far smaller) never split, and
/// unbudgeted heavy blocks — the E7 pathology — do.
pub const DEFAULT_SPLIT_THRESHOLD: usize = 1_000_000;

/// Selection settings for `ise select` (enumeration settings live in [`BatchConfig`]).
#[derive(Clone, Debug)]
pub struct SelectionConfig {
    /// Maximum number of custom instructions chosen per block.
    pub max_instructions: usize,
    /// Register-file read ports available per cycle for operand transfer.
    pub ports_in: usize,
    /// Register-file write ports available per cycle for result transfer.
    pub ports_out: usize,
}

/// Configuration of one batch run.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// The microarchitectural constraints (`Nin`, `Nout`).
    pub constraints: Constraints,
    /// The §5.3 pruning techniques to apply (all, for production runs).
    pub pruning: PruningConfig,
    /// Optional per-block search budget (`None` = unbounded); fanned-out blocks
    /// split it evenly across their static tasks.
    pub budget: Option<usize>,
    /// Number of worker threads; clamped to at least 1. Feeds the scheduler and the
    /// sharded merges and never changes any output count.
    pub threads: usize,
    /// When set, each block additionally runs the greedy ISE selection.
    pub select: Option<SelectionConfig>,
    /// When the engine de-duplicates candidates relative to validating them
    /// (`--dedup-mode`; [`DedupMode::ValidateFirst`] is the bounded-memory fallback).
    pub dedup_mode: DedupMode,
    /// Minimum block size (in vertices) for intra-block fan-out; `usize::MAX`
    /// disables fan-out (and with it recursive splitting) entirely.
    pub par_threshold: usize,
    /// Recursive split threshold for fanned-out tasks (`None` disables). Applies
    /// only to blocks at or above [`BatchConfig::par_threshold`]. Changes the work
    /// decomposition, never the unbudgeted results.
    pub split_threshold: Option<usize>,
}

impl BatchConfig {
    /// An unbounded single-threaded enumerate-only configuration with the default
    /// fan-out and split thresholds.
    pub fn new(constraints: Constraints) -> Self {
        BatchConfig {
            constraints,
            pruning: PruningConfig::all(),
            budget: None,
            threads: 1,
            select: None,
            dedup_mode: DedupMode::default(),
            par_threshold: DEFAULT_PAR_THRESHOLD,
            split_threshold: Some(DEFAULT_SPLIT_THRESHOLD),
        }
    }
}

/// What one block produced: the enumeration (and optional selection) plus the block's
/// structural counts for reporting.
#[derive(Clone, Debug)]
pub struct BlockOutcome {
    /// Position of the block in the loaded corpus (outcomes are returned sorted by
    /// this, so results are deterministic for any thread count).
    pub index: usize,
    /// The block's corpus name.
    pub name: String,
    /// Vertex count of the block.
    pub nodes: usize,
    /// Edge count of the block.
    pub edges: usize,
    /// Forbidden-vertex count of the block (memory operations, calls, user marks).
    pub forbidden: usize,
    /// How many tasks the block's enumeration was merged from (1 = ran whole;
    /// recursive splitting can push this past the static fan-out — still a pure
    /// function of the block and the flags, never of the thread count).
    pub tasks: usize,
    /// The enumeration result (merged across tasks when the block fanned out).
    pub enumeration: Enumeration,
    /// The greedy selection, when [`BatchConfig::select`] was set.
    pub selection: Option<Selection>,
    /// Wall time from the block's first task starting to its merge completing
    /// (context build included).
    pub elapsed: Duration,
}

/// The block's schedule: whole below the fan-out threshold, otherwise split into
/// at most [`MAX_TASKS_PER_BLOCK`] first-output tasks with the block budget shared
/// evenly among them.
fn plan_block<'a>(dfg: &'a Dfg, config: &BatchConfig) -> BlockJob<'a> {
    let fan_out = dfg.len() >= config.par_threshold;
    // The engine's own context-free counter, so the plan's task count can never
    // drift from the candidate list the tasks slice.
    let tasks = if fan_out {
        EnumContext::candidate_output_count(dfg).clamp(1, MAX_TASKS_PER_BLOCK)
    } else {
        1
    };
    let options = EngineOptions {
        // The block budget is split evenly across the static tasks so a fanned-out
        // sweep costs what a whole-block sweep would; deterministic in the plan
        // alone. Budget exhaustion suppresses recursive splits.
        max_search_nodes: config.budget.map(|b| b.div_ceil(tasks).max(1)),
        dedup_mode: config.dedup_mode,
    };
    // A block that does not fan out is one task that never splits: the serial run.
    let split_threshold = fan_out.then_some(config.split_threshold).flatten();
    BlockJob::split(dfg, options, tasks, split_threshold)
}

/// Runs the batch: every block of `blocks` through the engine, with large blocks
/// fanned out into first-output tasks (recursively re-split past the split
/// threshold), all scheduled by [`run_blocks`] over [`BatchConfig::threads`]
/// workers.
///
/// The fan-out plan, the split points and the task merge are all deterministic, so
/// the outcomes (in block order) are identical for every thread count; only the
/// wall times differ.
///
/// An optional [`Recorder`] observes the run: per-block and per-task spans, pool
/// counters and phase timings land in the recorder, worker threads are named
/// `worker-N` for trace grouping. Recording never changes any outcome — the plan,
/// the split points and the merge are untouched — so `run_batch_obs(b, c, None)` and
/// `run_batch_obs(b, c, Some(rec))` report identical counts.
pub fn run_batch_obs(
    blocks: &[CorpusBlock],
    config: &BatchConfig,
    rec: Option<&dyn Recorder>,
) -> Vec<BlockOutcome> {
    let jobs: Vec<BlockJob> = blocks.iter().map(|b| plan_block(&b.dfg, config)).collect();
    run_blocks(
        &jobs,
        &config.constraints,
        &config.pruning,
        config.threads,
        rec,
        |index, ctx, run| finalize(&blocks[index], index, ctx, config, run, rec),
    )
}

/// Turns one block's run into its outcome, selecting instructions when asked; runs
/// on the worker that retired the block.
fn finalize(
    block: &CorpusBlock,
    index: usize,
    ctx: &EnumContext,
    config: &BatchConfig,
    run: BlockRun,
    rec: Option<&dyn Recorder>,
) -> BlockOutcome {
    let selection = config.select.as_ref().map(|sel| {
        select_ises(
            ctx,
            &run.enumeration.cuts,
            &LatencyModel::default(),
            sel.ports_in,
            sel.ports_out,
            sel.max_instructions,
        )
    });
    let outcome = BlockOutcome {
        index,
        name: block.dfg.name().to_string(),
        nodes: block.dfg.len(),
        edges: block.dfg.edge_count(),
        forbidden: block.dfg.forbidden().len(),
        tasks: run.task_nodes.len(),
        enumeration: run.enumeration,
        selection,
        elapsed: run.started.elapsed(),
    };
    if let Some(rec) = rec {
        rec.add("ise_batch_blocks_total", 1);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_enum::incremental_cuts;
    use ise_workloads::random_dag::{random_dag, RandomDagConfig};

    fn small_corpus() -> Vec<CorpusBlock> {
        [(16usize, 0usize), (24, 10), (32, 20), (36, 15), (28, 5)]
            .into_iter()
            .enumerate()
            .map(|(i, (nodes, mem_pct))| CorpusBlock {
                dfg: random_dag(
                    &RandomDagConfig::new(nodes).with_memory_ratio(mem_pct as f64 / 100.0),
                    90 + i as u64,
                ),
                meta: Vec::new(),
            })
            .collect()
    }

    fn config(threads: usize) -> BatchConfig {
        BatchConfig {
            threads,
            ..BatchConfig::new(Constraints::new(4, 2).unwrap())
        }
    }

    /// Whole, fanned-out (forced via a tiny threshold) and recursively split blocks
    /// must all report exactly what a direct engine run reports, statistics and cut
    /// order included, on unbudgeted runs.
    #[test]
    fn batch_outcomes_match_direct_engine_runs_exactly() {
        let blocks = small_corpus();
        for (par_threshold, split_threshold) in [
            (DEFAULT_PAR_THRESHOLD, Some(DEFAULT_SPLIT_THRESHOLD)),
            (1, Some(DEFAULT_SPLIT_THRESHOLD)),
            (1, Some(50)),
        ] {
            let mut cfg = config(3);
            cfg.par_threshold = par_threshold;
            cfg.split_threshold = split_threshold;
            let outcomes = run_batch_obs(&blocks, &cfg, None);
            assert_eq!(outcomes.len(), blocks.len());
            if par_threshold == 1 {
                assert!(outcomes.iter().all(|o| o.tasks > 1), "every block fans out");
            }
            if split_threshold == Some(50) {
                assert!(
                    outcomes.iter().any(|o| o.tasks > MAX_TASKS_PER_BLOCK),
                    "a 50-node threshold must split some block past the static fan-out"
                );
            }
            for (outcome, block) in outcomes.iter().zip(&blocks) {
                let label = format!(
                    "{} par={par_threshold} split={split_threshold:?}",
                    outcome.name
                );
                assert_eq!(outcome.name, block.dfg.name());
                let ctx = EnumContext::new(block.dfg.clone());
                let direct = incremental_cuts(&ctx, &cfg.constraints, &cfg.pruning);
                assert_eq!(outcome.enumeration.stats, direct.stats, "{label}: stats");
                let merged: Vec<_> = outcome.enumeration.cuts.iter().map(|c| c.key()).collect();
                let serial: Vec<_> = direct.cuts.iter().map(|c| c.key()).collect();
                assert_eq!(merged, serial, "{label}: cut order");
            }
        }
    }

    /// Thread count must not change results — only wall time (acceptance criterion:
    /// identical aggregate counts for N=1 and N=8) — including when blocks fan out
    /// and recursively split.
    #[test]
    fn thread_count_does_not_change_results() {
        let blocks = small_corpus();
        for (par_threshold, split_threshold) in [
            (DEFAULT_PAR_THRESHOLD, Some(DEFAULT_SPLIT_THRESHOLD)),
            (1, Some(DEFAULT_SPLIT_THRESHOLD)),
            (1, Some(25)),
            (1, None),
        ] {
            let make = |threads| {
                let mut cfg = config(threads);
                cfg.par_threshold = par_threshold;
                cfg.split_threshold = split_threshold;
                cfg
            };
            let one = run_batch_obs(&blocks, &make(1), None);
            for threads in [2, 8] {
                let many = run_batch_obs(&blocks, &make(threads), None);
                assert_eq!(one.len(), many.len());
                for (a, b) in one.iter().zip(&many) {
                    assert_eq!(a.index, b.index);
                    assert_eq!(a.name, b.name);
                    assert_eq!(a.tasks, b.tasks, "{}: task plan drifted", a.name);
                    assert_eq!(a.enumeration.stats, b.enumeration.stats);
                    assert_eq!(a.enumeration.cuts.len(), b.enumeration.cuts.len());
                }
                let total =
                    |o: &[BlockOutcome]| o.iter().map(|b| b.enumeration.cuts.len()).sum::<usize>();
                assert_eq!(total(&one), total(&many), "{threads} threads");
            }
        }
    }

    /// The validate-first memory fallback must not change any reported cut.
    #[test]
    fn dedup_mode_does_not_change_cut_counts() {
        let blocks = small_corpus();
        let reference = run_batch_obs(&blocks, &config(2), None);
        let mut cfg = config(2);
        cfg.dedup_mode = DedupMode::ValidateFirst;
        cfg.par_threshold = 1;
        let fallback = run_batch_obs(&blocks, &cfg, None);
        for (a, b) in reference.iter().zip(&fallback) {
            assert_eq!(
                a.enumeration.cuts.len(),
                b.enumeration.cuts.len(),
                "{}",
                a.name
            );
            assert_eq!(
                a.enumeration.stats.valid_cuts,
                b.enumeration.stats.valid_cuts
            );
        }
    }

    #[test]
    fn selection_is_attached_when_requested() {
        let blocks = small_corpus();
        let mut cfg = config(2);
        cfg.select = Some(SelectionConfig {
            max_instructions: 3,
            ports_in: 4,
            ports_out: 2,
        });
        let outcomes = run_batch_obs(&blocks, &cfg, None);
        assert!(outcomes.iter().all(|o| o.selection.is_some()));
        assert!(outcomes.iter().any(|o| !o
            .selection
            .as_ref()
            .expect("selection requested")
            .chosen
            .is_empty()));
        for outcome in &outcomes {
            let sel = outcome.selection.as_ref().expect("selection requested");
            assert!(sel.chosen.len() <= 3);
        }
    }

    #[test]
    fn budget_bounds_every_block() {
        let blocks = small_corpus();
        let mut cfg = config(3);
        cfg.budget = Some(10);
        for outcome in run_batch_obs(&blocks, &cfg, None) {
            assert!(outcome.enumeration.stats.search_nodes <= 10);
        }
        // Fanned out, the block budget is split across the static tasks, so the
        // block total still cannot exceed the budget (plus per-task rounding) —
        // per-task budgets are far below the split threshold, so no task splits.
        cfg.par_threshold = 1;
        cfg.budget = Some(32);
        for outcome in run_batch_obs(&blocks, &cfg, None) {
            assert!(
                outcome.enumeration.stats.search_nodes <= 32 + outcome.tasks,
                "{}: {} nodes over budget",
                outcome.name,
                outcome.enumeration.stats.search_nodes
            );
        }
    }

    #[test]
    fn empty_corpus_yields_no_outcomes() {
        assert!(run_batch_obs(&[], &config(4), None).is_empty());
    }
}
