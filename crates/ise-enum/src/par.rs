//! Intra-block task-parallel enumeration: the Figure 3 search split at the
//! first-output level, with recursive task splitting and a work-stealing scheduler.
//!
//! The top level of the incremental algorithm's recursion is embarrassingly parallel:
//! the serial `PICK-OUTPUT` loop tries every candidate first output in order, and each
//! iteration fully unwinds the search state before the next begins (the push/pop
//! discipline restores the arena exactly). The *only* state that crosses first-output
//! subtrees is the de-duplication seen-set — and the seen-set never influences which
//! nodes the search visits, only whether a repeated candidate is re-counted (see
//! DESIGN.md §1.4 for the argument). A subtree rooted at one first output is therefore
//! an independent task.
//!
//! Three mechanisms make the decomposition scale past its static fan-out:
//!
//! * **Recursive task splitting.** A task that exceeds its block's split threshold
//!   ([`BlockJob::split`]) suspends at its next decision boundary — between
//!   first-output roots, or between the first-level `PICK-INPUTS` decisions inside a
//!   root — and emits child tasks covering exactly the untouched remainder. No work
//!   is discarded or repeated; the suspension point is a pure function of (block,
//!   options, threshold), so the resulting task tree is identical for every thread
//!   count. Child ids extend the parent's id ([`TaskId`] is a path; lexicographic
//!   order is the serial traversal order), which is all the merge needs.
//! * **Work stealing.** The pool gives each worker its own deque: workers pop their
//!   newest item (their own freshly split children, for locality) and idle workers
//!   steal the oldest item from a peer — so a skewed subtree that keeps splitting is
//!   drained by whoever is free, instead of serializing one worker's tail.
//!   Scheduling order never affects the output: tasks are pure functions and the
//!   merge sorts by [`TaskId`].
//! * **Sharded merge.** The merge stripes the global seen-set by the high bits of
//!   the cut-key hash into 16 independent shards (the `CanonMemo` stripe pattern),
//!   computes first-seen/duplicate verdicts per shard — in parallel when threads are
//!   available — and then emits cuts and statistics in one ordered pass. Equal keys
//!   always land in the same shard and shard-local order equals the serial replay
//!   order, so the verdicts (and thus the output bytes) never change.
//!
//! The merged [`Enumeration`] — cuts *and* statistics — is byte-identical to the
//! serial run for unbudgeted runs, for **any** task count, split threshold and thread
//! count. With a per-task search budget the result is still deterministic in (tasks,
//! split threshold), just not equal to the serially budgeted run; batch drivers must
//! therefore derive both knobs from the block and flags alone, never from the machine.
//!
//! [`run_blocks`] is the one driver: it runs any number of [`BlockJob`]s — each whole
//! or split into first-output tasks, with its own engine options and split threshold
//! — on one work-stealing pool, and hands each block's merged [`BlockRun`] to a
//! callback on the worker that retires the block. The `ise` batch commands, the
//! daemon, the E7 experiment and the equivalence tests all run through it.
//! [`initial_tasks`] and [`run_task`] expose single tasks for replay tools.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use ise_graph::Dfg;
use ise_obs::{Counter, Recorder};

use crate::config::{Constraints, PruningConfig};
use crate::context::EnumContext;
use crate::engine::{
    CandidateClass, CutKeySet, DedupMode, EngineOptions, SearchState, TaskHarvest,
};
use crate::incremental::{incremental_cuts_with, IncrementalEnumerator, SuspendPoint};
use crate::result::Enumeration;
use crate::stats::EnumStats;

/// Number of seen-set shards in the parallel-reducible merge; mirrors the 16-way
/// stripe of `ise-canon`'s `CanonMemo`. Shard routing uses the top four hash bits,
/// the shard-local probe tables use the low bits — independent partitions.
const MERGE_SHARDS: usize = 16;

/// Deterministic identity of one task in the (possibly recursive) decomposition.
///
/// The id is the path from the static fan-out to the task: initial task `i` is `[i]`,
/// and the `j`-th child spawned by a suspending task appends `j` to its parent's
/// path. Because a parent's output covers the traversal prefix it completed before
/// suspending, and children cover the remainder in order, **lexicographic id order is
/// exactly the serial traversal order** — sorting task outputs by id is all the
/// deterministic merge needs, no matter which worker ran what when.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(Vec<u32>);

impl TaskId {
    fn initial(i: u32) -> Self {
        TaskId(vec![i])
    }

    fn child(&self, j: u32) -> Self {
        let mut path = self.0.clone();
        path.push(j);
        TaskId(path)
    }

    /// The id as a path of child indices (`[i]` for initial task `i`).
    pub fn path(&self) -> &[u32] {
        &self.0
    }
}

/// One schedulable unit of the decomposition: a contiguous range of first-output
/// roots, plus — for a task resuming a root its parent suspended inside — the index
/// of the first root's first unowned decision. Produced by [`initial_tasks`] and by
/// [`run_task`] (children of a suspended task); pure data, freely sendable between
/// workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSpec {
    id: TaskId,
    roots: Range<usize>,
    first_root_skip: Option<usize>,
}

impl TaskSpec {
    /// The task's deterministic identity (the merge sort key).
    pub fn id(&self) -> &TaskId {
        &self.id
    }

    /// Child tasks covering exactly the work left untouched at `suspend`: the
    /// remainder of a partially explored root first (it precedes later roots in the
    /// serial order), then the untouched roots split in halves so the task tree stays
    /// shallow. Ids extend this task's id in emission order.
    fn children(&self, suspend: SuspendPoint) -> Vec<TaskSpec> {
        let mut parts: Vec<(Range<usize>, Option<usize>)> = Vec::new();
        match suspend {
            SuspendPoint::AtRoot { next } => split_roots(next..self.roots.end, &mut parts),
            SuspendPoint::InRoot {
                root,
                next_decision,
            } => {
                parts.push((root..root + 1, Some(next_decision)));
                split_roots(root + 1..self.roots.end, &mut parts);
            }
        }
        parts
            .into_iter()
            .enumerate()
            .map(|(j, (roots, first_root_skip))| TaskSpec {
                id: self.id.child(j as u32),
                roots,
                first_root_skip,
            })
            .collect()
    }
}

/// Splits a root range into at most two non-empty halves (none if it is empty).
fn split_roots(range: Range<usize>, parts: &mut Vec<(Range<usize>, Option<usize>)>) {
    match range.len() {
        0 => {}
        1 => parts.push((range, None)),
        len => {
            let mid = range.start + len / 2;
            parts.push((range.start..mid, None));
            parts.push((mid..range.end, None));
        }
    }
}

/// What one task produced; the driver merges the outputs of a completed
/// decomposition in [`TaskId`] order. Opaque: the classification log inside is an
/// implementation detail of the merge.
pub struct TaskOutput {
    harvest: TaskHarvest,
}

impl TaskOutput {
    /// The task's local statistics (diagnostics only — the merge recomputes the
    /// de-duplication-dependent counters globally).
    pub fn stats(&self) -> &EnumStats {
        &self.harvest.stats
    }
}

/// Splits `candidate_count` first-output candidates into at most `tasks` contiguous
/// ranges covering `0..candidate_count` in order (the partition the merge expects).
/// Ranges differ in length by at most one, and every returned range is **non-empty**:
/// with more tasks than candidates the excess ranges are skipped rather than turned
/// into degenerate scheduled tasks, so the returned vector may be shorter than
/// `tasks` (and empty when `candidate_count` is zero).
///
/// # Example
///
/// ```
/// let ranges = ise_enum::par::task_ranges(10, 4);
/// assert_eq!(ranges, vec![0..2, 2..5, 5..7, 7..10]);
/// assert_eq!(ise_enum::par::task_ranges(2, 4), vec![0..1, 1..2]);
/// ```
pub fn task_ranges(candidate_count: usize, tasks: usize) -> Vec<Range<usize>> {
    let tasks = tasks.max(1);
    (0..tasks)
        .map(|i| (i * candidate_count / tasks)..((i + 1) * candidate_count / tasks))
        .filter(|range| !range.is_empty())
        .collect()
}

/// The initial (pre-splitting) task specs of a decomposition into `tasks` contiguous
/// root ranges: one spec per non-empty range of [`task_ranges`], with ids `[0]`,
/// `[1]`, … in range order.
pub fn initial_tasks(candidate_count: usize, tasks: usize) -> Vec<TaskSpec> {
    task_ranges(candidate_count, tasks)
        .into_iter()
        .enumerate()
        .map(|(i, roots)| TaskSpec {
            id: TaskId::initial(i as u32),
            roots,
            first_root_skip: None,
        })
        .collect()
}

/// Runs one task of the decomposition: the serial engine over the subtrees rooted at
/// `ctx.candidate_outputs()[spec.roots]` (minus any decision prefix owned by the
/// task's ancestors), suspending once the search exceeds `split_threshold` nodes.
/// Returns the task's output plus the child tasks covering whatever the suspension
/// left untouched (empty when the task ran to completion).
///
/// Pure function of its arguments — workers can run tasks in any order on any thread
/// — and zero-waste: a suspended task keeps everything it explored, so the total work
/// across a task tree equals the serial run's exactly.
pub fn run_task(
    ctx: &EnumContext,
    constraints: &Constraints,
    pruning: &PruningConfig,
    options: &EngineOptions,
    split_threshold: Option<usize>,
    spec: &TaskSpec,
) -> (TaskOutput, Vec<TaskSpec>) {
    run_task_obs(
        ctx,
        constraints,
        pruning,
        options,
        split_threshold,
        spec,
        None,
    )
}

/// [`run_task`] with an optional [`Recorder`] receiving the task's lifecycle: a
/// per-task span (named after the [`TaskId`] path, so Chrome-trace timelines nest
/// tasks under their worker threads), the engine's per-phase timings, and split /
/// child-spawn counters. Recording never changes the task's output.
#[allow(clippy::too_many_arguments)]
fn run_task_obs(
    ctx: &EnumContext,
    constraints: &Constraints,
    pruning: &PruningConfig,
    options: &EngineOptions,
    split_threshold: Option<usize>,
    spec: &TaskSpec,
    rec: Option<&dyn Recorder>,
) -> (TaskOutput, Vec<TaskSpec>) {
    let span = match rec {
        Some(rec) if rec.enabled() => {
            let path: Vec<String> = spec.id.path().iter().map(u32::to_string).collect();
            rec.span_begin("task", &format!("task {}", path.join(".")))
        }
        _ => ise_obs::SpanToken::NONE,
    };
    let mut enumerator = IncrementalEnumerator::with_root_range(ctx, pruning, spec.roots.clone());
    enumerator.set_task_split(split_threshold, spec.first_root_skip);
    let mut state = SearchState::new(ctx, constraints, options);
    if let Some(rec) = rec {
        state.set_recorder(rec);
    }
    if options.dedup_mode == DedupMode::DedupFirst {
        state.enable_class_log();
    }
    crate::engine::Enumerator::search(&mut enumerator, &mut state);
    let children = match enumerator.take_suspension() {
        Some(suspend) => spec.children(suspend),
        None => Vec::new(),
    };
    let output = TaskOutput {
        harvest: state.finish_task(),
    };
    if let Some(rec) = rec {
        rec.add("ise_pool_tasks_total", 1);
        if !children.is_empty() {
            rec.add("ise_pool_splits_total", 1);
            rec.add("ise_pool_children_spawned_total", children.len() as u64);
        }
        rec.observe(
            "ise_pool_task_nodes",
            output.harvest.stats.search_nodes as u64,
        );
        rec.span_end(span);
    }
    (output, children)
}

/// A work-stealing scheduler over per-worker deques; `std`-only.
///
/// Each worker owns one deque. [`pop`](Self::pop) serves the worker's own newest item
/// first (LIFO — freshly split children, still warm in cache) and, when the own deque
/// is empty, steals the *oldest* item from a peer (FIFO — the oldest items are the
/// coarsest, so a steal moves the most work per lock acquisition). An atomic
/// in-flight count covering queued *and* running items gives exact termination:
/// `pop` returns `None` only when nothing is queued anywhere and no running item can
/// spawn more children.
///
/// The pool schedules; it never sequences results. Users tag items with their own
/// deterministic order (the enumeration tasks carry a [`TaskId`]) and sort after the
/// pool drains.
struct WorkStealPool<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    in_flight: AtomicUsize,
    obs: PoolCounters,
}

/// Counter handles for the pool's scheduling events. All handles are disabled
/// (single null-check per event) until `WorkStealPool::set_recorder` arms them.
#[derive(Default)]
struct PoolCounters {
    /// Items seeded into the pool up front.
    seeded: Counter,
    /// Items pushed by a running item (split children).
    pushed: Counter,
    /// Items a worker popped from its own deque.
    own_pops: Counter,
    /// Items a worker stole from a peer's deque.
    steals: Counter,
    /// Items marked fully processed.
    done: Counter,
}

impl<T> WorkStealPool<T> {
    /// A pool with one deque per worker.
    fn new(workers: usize) -> Self {
        WorkStealPool {
            queues: (0..workers.max(1)).map(|_| Mutex::default()).collect(),
            in_flight: AtomicUsize::new(0),
            obs: PoolCounters::default(),
        }
    }

    /// Arms the scheduling counters (`ise_pool_seeded_total`, `ise_pool_pushed_total`,
    /// `ise_pool_own_pops_total`, `ise_pool_steals_total`, `ise_pool_done_total`).
    /// The ledger `own_pops + steals == done` holds whenever the pool has drained.
    /// Recording never affects scheduling.
    fn set_recorder(&mut self, rec: &dyn Recorder) {
        self.obs = PoolCounters {
            seeded: rec.counter("ise_pool_seeded_total"),
            pushed: rec.counter("ise_pool_pushed_total"),
            own_pops: rec.counter("ise_pool_own_pops_total"),
            steals: rec.counter("ise_pool_steals_total"),
            done: rec.counter("ise_pool_done_total"),
        };
    }

    /// Distributes initial items round-robin across the worker deques.
    fn seed<I: IntoIterator<Item = T>>(&self, items: I) {
        for (i, item) in items.into_iter().enumerate() {
            self.in_flight.fetch_add(1, Ordering::AcqRel);
            self.obs.seeded.incr();
            let queue = &self.queues[i % self.queues.len()];
            queue.lock().expect("pool lock poisoned").push_back(item);
        }
    }

    /// Enqueues an item produced while processing another one onto `worker`'s own
    /// deque. Must be called *before* the producing item's [`done`](Self::done), so
    /// the in-flight count never drops to zero while work remains.
    fn push(&self, worker: usize, item: T) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        self.obs.pushed.incr();
        self.queues[worker]
            .lock()
            .expect("pool lock poisoned")
            .push_back(item);
    }

    /// Next item for `worker`: its own deque first (newest), then stealing the oldest
    /// item from a peer. Blocks (spinning with `yield_now`) while other workers still
    /// process items that may split; returns `None` only when everything is done.
    fn pop(&self, worker: usize) -> Option<T> {
        loop {
            if let Some(item) = self.queues[worker]
                .lock()
                .expect("pool lock poisoned")
                .pop_back()
            {
                self.obs.own_pops.incr();
                return Some(item);
            }
            let n = self.queues.len();
            for offset in 1..n {
                let victim = &self.queues[(worker + offset) % n];
                if let Some(item) = victim.lock().expect("pool lock poisoned").pop_front() {
                    self.obs.steals.incr();
                    return Some(item);
                }
            }
            if self.in_flight.load(Ordering::Acquire) == 0 {
                return None;
            }
            std::thread::yield_now();
        }
    }

    /// Marks one popped item fully processed. Call after pushing any children the
    /// item spawned.
    fn done(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.obs.done.incr();
    }
}

/// Merges the outputs of a completed decomposition (sorted by [`TaskId`], which
/// the driver does when a block's last task retires) into one [`Enumeration`] via
/// the sharded, parallel-reducible replay.
///
/// Conceptually the merge replays each task's first-seen candidates, in task order,
/// against a global seen-set: a candidate an earlier task (or an earlier entry of the
/// same task) already claimed is re-counted as a duplicate exactly as the serial
/// seen-set would have counted it, and everything else replays its recorded
/// classification. The implementation splits that replay by key hash into 16
/// independent shards reduced in parallel (up to `threads` at a time), then emits
/// cuts and statistics in one ordered, hash-free pass. Equal keys
/// share a shard and shard-local order preserves task order, so the verdicts — and
/// the output bytes, cut list order included — match the serial replay for every
/// `threads` value. For unbudgeted runs the result is byte-identical to the serial
/// enumeration.
///
/// With a [`Recorder`] the merge runs under a `merge` span and each seen-set shard's
/// reduction time lands in the `ise_merge_shard_ns` histogram, making merge
/// serialization measurable. Recording never changes the merged result.
fn merge_tasks(
    ctx: &EnumContext,
    options: &EngineOptions,
    outputs: Vec<TaskOutput>,
    threads: usize,
    rec: Option<&dyn Recorder>,
) -> Enumeration {
    let span = match rec {
        Some(rec) => rec.span_begin("merge", "merge_tasks"),
        None => ise_obs::SpanToken::NONE,
    };
    let mut stats = EnumStats::new();
    // Counters independent of de-duplication are plain sums: the tasks partition the
    // serial traversal (recursive splits suspend and resume at decision boundaries
    // without re-counting), and nothing below the top level reads the seen-set.
    for out in &outputs {
        let s = out.harvest.stats;
        stats.candidates_checked += s.candidates_checked;
        stats.rejected_duplicate += s.rejected_duplicate;
        stats.dominator_runs += s.dominator_runs;
        stats.pruned_output_output += s.pruned_output_output;
        stats.pruned_output_input += s.pruned_output_input;
        stats.pruned_input_input += s.pruned_input_input;
        stats.pruned_dominator_input += s.pruned_dominator_input;
        stats.pruned_connectedness += s.pruned_connectedness;
        stats.pruned_build_s += s.pruned_build_s;
        stats.search_nodes += s.search_nodes;
    }

    let stride = ctx.rooted().num_nodes().div_ceil(64);
    let mut cuts = Vec::new();
    if options.dedup_mode == DedupMode::DedupFirst {
        // Dedup-first: shard-reduce the first-seen/duplicate verdicts, then replay
        // every entry with its recorded classification in task order. Keys an earlier
        // task already claimed become duplicates, exactly as the serial run would
        // have counted them at that point of its discovery order.
        let lens: Vec<usize> = outputs.iter().map(|o| o.harvest.seen.len()).collect();
        let duplicate = duplicate_flags(
            &lens,
            stride,
            |t, e| outputs[t].harvest.seen.key(e),
            threads,
            rec,
        );
        for (t, out) in outputs.into_iter().enumerate() {
            let harvest = out.harvest;
            debug_assert_eq!(harvest.seen.len(), harvest.classes.len());
            let mut cut_iter = harvest.cuts.into_iter();
            for (idx, &class) in harvest.classes.iter().enumerate() {
                if !duplicate[t][idx] {
                    CandidateClass::replay(class, &mut stats);
                    if class == CandidateClass::VALID {
                        cuts.push(cut_iter.next().expect("one cut per VALID entry"));
                    }
                } else {
                    stats.rejected_duplicate += 1;
                    if class == CandidateClass::VALID {
                        // An earlier task already reported this cut.
                        let _ = cut_iter.next().expect("one cut per VALID entry");
                    }
                }
            }
            debug_assert!(cut_iter.next().is_none(), "unconsumed task cuts");
        }
    } else {
        // Validate-first: rejections are counted per occurrence
        // in serial runs too, so they stay plain sums; only the valid cuts need
        // global de-duplication by body key — shard-reduced the same way.
        for out in &outputs {
            let s = out.harvest.stats;
            stats.rejected_forbidden += s.rejected_forbidden;
            stats.rejected_io += s.rejected_io;
            stats.rejected_disconnected += s.rejected_disconnected;
            stats.rejected_depth += s.rejected_depth;
        }
        let lens: Vec<usize> = outputs.iter().map(|o| o.harvest.cuts.len()).collect();
        let duplicate = duplicate_flags(
            &lens,
            stride,
            |t, c| outputs[t].harvest.cuts[c].body().words(),
            threads,
            rec,
        );
        for (t, out) in outputs.into_iter().enumerate() {
            for (c, cut) in out.harvest.cuts.into_iter().enumerate() {
                if !duplicate[t][c] {
                    stats.valid_cuts += 1;
                    cuts.push(cut);
                } else {
                    stats.rejected_duplicate += 1;
                }
            }
        }
    }
    if let Some(rec) = rec {
        rec.span_end(span);
    }
    Enumeration { cuts, stats }
}

/// Computes, for every `(task, entry)` key of a task sequence, whether it duplicates
/// an earlier key — an earlier entry of the same task or any entry of an earlier task
/// — using [`MERGE_SHARDS`] hash-striped seen-set shards reduced independently (in
/// parallel when `threads > 1`).
///
/// Determinism: equal keys hash equally and therefore meet in the same shard, and
/// each shard inserts its keys in `(task, entry)` order — the serial replay order
/// restricted to that shard — so the first-seen verdicts are exactly the serial
/// ones regardless of which thread reduced which shard.
fn duplicate_flags<'a, F>(
    lens: &[usize],
    stride: usize,
    key_of: F,
    threads: usize,
    rec: Option<&dyn Recorder>,
) -> Vec<Vec<bool>>
where
    F: Fn(usize, usize) -> &'a [u64] + Sync,
{
    let tasks = lens.len();
    // Phase 1: hash every key once, in parallel over tasks; the hash routes the key
    // to its shard (top four bits) and seeds the shard's probe table (low bits).
    let hash_slots: Vec<OnceLock<Vec<u64>>> = (0..tasks).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let hash_workers = threads.clamp(1, tasks.max(1));
    std::thread::scope(|scope| {
        for _ in 0..hash_workers {
            scope.spawn(|| loop {
                let t = cursor.fetch_add(1, Ordering::Relaxed);
                if t >= tasks {
                    break;
                }
                let hashes: Vec<u64> = (0..lens[t])
                    .map(|e| CutKeySet::hash_key(key_of(t, e)))
                    .collect();
                assert!(
                    hash_slots[t].set(hashes).is_ok(),
                    "each hash slot is filled exactly once"
                );
            });
        }
    });
    let hashes: Vec<&Vec<u64>> = hash_slots
        .iter()
        .map(|slot| slot.get().expect("every hash slot filled"))
        .collect();

    // Phase 2: per-shard replay. Each shard walks the entries it owns in (task,
    // entry) order against its own seen-set and records the duplicates.
    let dup_slots: Vec<OnceLock<Vec<(u32, u32)>>> =
        (0..MERGE_SHARDS).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let shard_workers = threads.clamp(1, MERGE_SHARDS);
    std::thread::scope(|scope| {
        for _ in 0..shard_workers {
            scope.spawn(|| loop {
                let shard = cursor.fetch_add(1, Ordering::Relaxed);
                if shard >= MERGE_SHARDS {
                    break;
                }
                let shard_start = rec.map(|_| Instant::now());
                let mut seen = CutKeySet::new(stride);
                let mut duplicates = Vec::new();
                for (t, task_hashes) in hashes.iter().enumerate() {
                    for (e, &hash) in task_hashes.iter().enumerate() {
                        if (hash >> 60) as usize == shard
                            && !seen.insert_prehashed(key_of(t, e), hash)
                        {
                            duplicates.push((t as u32, e as u32));
                        }
                    }
                }
                if let (Some(rec), Some(start)) = (rec, shard_start) {
                    rec.observe("ise_merge_shard_ns", start.elapsed().as_nanos() as u64);
                }
                assert!(
                    dup_slots[shard].set(duplicates).is_ok(),
                    "each shard slot is filled exactly once"
                );
            });
        }
    });

    // Phase 3: scatter the (sparse) duplicate verdicts into per-task flag vectors for
    // the ordered emit pass.
    let mut flags: Vec<Vec<bool>> = lens.iter().map(|&len| vec![false; len]).collect();
    for slot in dup_slots {
        for (t, e) in slot.into_inner().expect("every shard slot filled") {
            flags[t as usize][e as usize] = true;
        }
    }
    flags
}

/// The most worker threads one [`run_blocks`] call spawns, whatever `threads` asks
/// for: results do not depend on the worker count, so the cap only bounds what a
/// caller-supplied count (a daemon request's, say) can make the process start.
pub const MAX_WORKERS: usize = 256;

/// One block of a [`run_blocks`] call: its graph, its engine settings and how its
/// search is decomposed.
pub struct BlockJob<'a> {
    dfg: &'a Dfg,
    options: EngineOptions,
    tasks: Vec<TaskSpec>,
    split_threshold: Option<usize>,
}

impl<'a> BlockJob<'a> {
    /// Splits `dfg` into `tasks` first-output tasks ([`initial_tasks`]), each
    /// re-split once it exceeds `split_threshold` search nodes (`None` disables
    /// splitting). `options.max_search_nodes` applies per task. The unbudgeted
    /// result equals the serial run's for any task count and threshold; with a
    /// budget it is deterministic in both, so derive them from the block and the
    /// flags, never from the machine. One task with no threshold is the serial run.
    pub fn split(
        dfg: &'a Dfg,
        options: EngineOptions,
        tasks: usize,
        split_threshold: Option<usize>,
    ) -> Self {
        BlockJob {
            dfg,
            options,
            tasks: initial_tasks(EnumContext::candidate_output_count(dfg), tasks),
            split_threshold,
        }
    }

    /// Whether the plan is exactly the serial run: no task at all (no candidate
    /// outputs), or a single task that can never split. Such blocks skip the task
    /// and merge machinery.
    fn is_whole(&self) -> bool {
        self.tasks.is_empty() || (self.tasks.len() == 1 && self.split_threshold.is_none())
    }
}

/// What [`run_blocks`] produced for one block.
pub struct BlockRun {
    /// The merged result — byte-identical to the serial run when unbudgeted.
    pub enumeration: Enumeration,
    /// Per-task `search_nodes` in [`TaskId`] order (one entry for a block run
    /// whole). Its length is the final task count, recursively split children
    /// included; the max/mean ratio is the load skew ([`crate::TaskLoadSummary`]).
    pub task_nodes: Vec<usize>,
    /// When the first of the block's tasks started, before its context was built.
    pub started: Instant,
}

/// In-flight state of one block; the worker retiring its last task merges it.
struct BlockSlot<R> {
    ctx: OnceLock<EnumContext>,
    started: OnceLock<Instant>,
    /// Tasks queued or running for this block — static tasks up front, plus every
    /// spawned child (registered before its parent retires).
    pending: AtomicUsize,
    outputs: Mutex<Vec<(TaskId, TaskOutput)>>,
    result: OnceLock<R>,
}

/// One schedulable unit: a block index plus either a task of its decomposition or
/// `None` for a whole-block (serial) run.
type WorkItem = (usize, Option<TaskSpec>);

/// Runs every block of `jobs` on one work-stealing pool of `threads` workers and
/// returns `finish`'s value for each block, in `jobs` order.
///
/// Whole blocks are single items; split blocks contribute one item per task, and
/// the children of a task that suspends are pushed onto its worker's own deque. The
/// worker retiring a block's last task merges the task outputs in [`TaskId`] order
/// and calls `finish(index, &ctx, run)` with the block's context, which is built
/// once, on the worker that starts the block. Workers: `threads` when some block can
/// split, otherwise at most one per item, and never more than [`MAX_WORKERS`].
///
/// Tasks are pure functions of the block and the job, and the merge is ordered by
/// [`TaskId`], so each [`BlockRun`] (its `started` aside) is identical for every
/// thread count and schedule. With a [`Recorder`], worker threads are named
/// `worker-N`, every task runs under its own span, the pool's scheduling counters
/// are armed and the merge is timed per shard; recording never changes a result.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::par::{run_blocks, BlockJob};
/// use ise_enum::{incremental_cuts, Constraints, EngineOptions, EnumContext, PruningConfig};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let c = b.input("c");
/// let n = b.node(Operation::Add, &[a, c]);
/// let x = b.node(Operation::Shl, &[n]);
/// let _y = b.node(Operation::Sub, &[n, c]);
/// let dfg = b.build()?;
/// let constraints = Constraints::new(3, 2)?;
/// let pruning = PruningConfig::all();
///
/// let serial = incremental_cuts(&EnumContext::new(dfg.clone()), &constraints, &pruning);
/// let job = BlockJob::split(&dfg, EngineOptions::default(), 2, None);
/// let runs = run_blocks(&[job], &constraints, &pruning, 2, None, |_, _, run| run);
/// assert_eq!(runs[0].enumeration.stats, serial.stats);
/// assert_eq!(runs[0].task_nodes.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn run_blocks<R, F>(
    jobs: &[BlockJob<'_>],
    constraints: &Constraints,
    pruning: &PruningConfig,
    threads: usize,
    rec: Option<&dyn Recorder>,
    finish: F,
) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(usize, &EnumContext, BlockRun) -> R + Sync,
{
    let slots: Vec<BlockSlot<R>> = jobs
        .iter()
        .map(|job| BlockSlot {
            ctx: OnceLock::new(),
            started: OnceLock::new(),
            pending: AtomicUsize::new(job.tasks.len().max(1)),
            outputs: Mutex::new(Vec::new()),
            result: OnceLock::new(),
        })
        .collect();
    let items: Vec<WorkItem> = jobs
        .iter()
        .enumerate()
        .flat_map(|(block, job)| -> Vec<WorkItem> {
            if job.is_whole() {
                vec![(block, None)]
            } else {
                job.tasks
                    .iter()
                    .map(|spec| (block, Some(spec.clone())))
                    .collect()
            }
        })
        .collect();

    // A splitting task can fan out past the initial items, so only a run that can
    // never split clamps the workers to the item count. `threads` may come from a
    // client, so the pool never exceeds MAX_WORKERS.
    let can_split = jobs
        .iter()
        .any(|job| !job.is_whole() && job.split_threshold.is_some());
    let wanted = if can_split {
        threads
    } else {
        threads.min(items.len())
    };
    let workers = wanted.clamp(1, MAX_WORKERS);
    let mut pool = WorkStealPool::new(workers);
    if let Some(rec) = rec {
        pool.set_recorder(rec);
    }
    pool.seed(items);

    let finish_block = |block: usize, ctx: &EnumContext, enumeration, task_nodes, started| {
        let run = BlockRun {
            enumeration,
            task_nodes,
            started,
        };
        let result = finish(block, ctx, run);
        assert!(
            slots[block].result.set(result).is_ok(),
            "each block is finished exactly once"
        );
    };
    // Executes one work item; the worker retiring a block's last task merges and
    // finishes the block.
    let run_item = |block: usize, spec: Option<TaskSpec>, worker: usize| {
        let (job, slot) = (&jobs[block], &slots[block]);
        let started = *slot.started.get_or_init(Instant::now);
        let ctx = slot.ctx.get_or_init(|| EnumContext::new(job.dfg.clone()));
        let Some(spec) = spec else {
            // Whole-block item: run the serial engine directly, no merge needed.
            let enumeration = incremental_cuts_with(ctx, constraints, pruning, &job.options, rec);
            let task_nodes = vec![enumeration.stats.search_nodes];
            finish_block(block, ctx, enumeration, task_nodes, started);
            return;
        };
        let (output, children) = run_task_obs(
            ctx,
            constraints,
            pruning,
            &job.options,
            job.split_threshold,
            &spec,
            rec,
        );
        if !children.is_empty() {
            // Register the children before retiring this task, so the block can never
            // look complete while split-off work is still queued.
            slot.pending.fetch_add(children.len(), Ordering::AcqRel);
            for child in children {
                pool.push(worker, (block, Some(child)));
            }
        }
        slot.outputs
            .lock()
            .expect("task output list poisoned")
            .push((spec.id, output));
        // The last task to retire (the mutex pushes above synchronize with this
        // acquire) merges in TaskId order — the serial order, whatever the schedule.
        if slot.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut outputs =
                std::mem::take(&mut *slot.outputs.lock().expect("task output list poisoned"));
            outputs.sort_by(|a, b| a.0.cmp(&b.0));
            let task_nodes = outputs
                .iter()
                .map(|(_, out)| out.stats().search_nodes)
                .collect();
            let outputs: Vec<TaskOutput> = outputs.into_iter().map(|(_, out)| out).collect();
            let enumeration = merge_tasks(ctx, &job.options, outputs, threads, rec);
            finish_block(block, ctx, enumeration, task_nodes, started);
        }
    };
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (pool, run_item) = (&pool, &run_item);
            scope.spawn(move || {
                if let Some(rec) = rec {
                    rec.set_thread_name(&format!("worker-{worker}"));
                }
                while let Some((block, spec)) = pool.pop(worker) {
                    run_item(block, spec, worker);
                    pool.done();
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.result
                .into_inner()
                .expect("every scheduled block was finished")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::Cut;
    use crate::incremental::incremental_cuts_with;
    use ise_graph::DfgBuilder;
    use ise_graph::Operation;

    /// A block whose cuts are discoverable from several first outputs, so the merge
    /// must de-duplicate across tasks (multi-output cuts are found from either
    /// output's subtree).
    fn cross_task_ctx() -> EnumContext {
        let mut b = DfgBuilder::new("cross");
        let a = b.input("a");
        let c = b.input("c");
        let n = b.node(Operation::Add, &[a, c]);
        let x = b.node(Operation::Mul, &[n, c]);
        let y = b.node(Operation::Sub, &[n, a]);
        let z = b.node(Operation::Xor, &[x, y]);
        b.mark_output(x);
        b.mark_output(y);
        b.mark_output(z);
        EnumContext::new(b.build().unwrap())
    }

    /// The block of `ctx` through the driver: `tasks` first-output tasks re-split
    /// past `split_threshold` nodes, on `threads` workers, all prunings on.
    fn drive(
        ctx: &EnumContext,
        constraints: &Constraints,
        options: EngineOptions,
        tasks: usize,
        split_threshold: Option<usize>,
        threads: usize,
    ) -> BlockRun {
        let job = BlockJob::split(ctx.dfg(), options, tasks, split_threshold);
        let pruning = PruningConfig::all();
        run_blocks(&[job], constraints, &pruning, threads, None, |_, _, run| {
            run
        })
        .pop()
        .expect("one block, one run")
    }

    fn assert_identical(par: &Enumeration, serial: &Enumeration, label: &str) {
        assert_eq!(par.stats, serial.stats, "{label}: stats diverge");
        let par_keys: Vec<_> = par.cuts.iter().map(Cut::key).collect();
        let serial_keys: Vec<_> = serial.cuts.iter().map(Cut::key).collect();
        assert_eq!(par_keys, serial_keys, "{label}: cut order diverges");
    }

    #[test]
    fn task_ranges_partition_the_candidates() {
        for (n, tasks) in [(10, 3), (7, 7), (3, 5), (0, 2), (11, 1)] {
            let ranges = task_ranges(n, tasks);
            assert!(
                ranges.len() <= tasks.max(1),
                "never more ranges than requested tasks"
            );
            let mut next = 0;
            for r in &ranges {
                assert!(!r.is_empty(), "({n}, {tasks}): no empty ranges");
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, n, "ranges must cover 0..{n}");
        }
    }

    #[test]
    fn task_ranges_skip_degenerate_fanout() {
        // More tasks than candidates: one non-empty range per candidate, no empties.
        assert_eq!(task_ranges(3, 5), vec![0..1, 1..2, 2..3]);
        assert_eq!(task_ranges(0, 4), vec![]);
        assert_eq!(initial_tasks(2, 16).len(), 2);
    }

    #[test]
    fn work_steal_pool_drains_dynamic_items() {
        let pool: WorkStealPool<usize> = WorkStealPool::new(3);
        pool.seed([10, 20, 30]);
        let drained = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for worker in 0..3 {
                let pool = &pool;
                let drained = &drained;
                scope.spawn(move || {
                    while let Some(item) = pool.pop(worker) {
                        // Items under 10 are "children" spawned dynamically.
                        if item >= 10 {
                            pool.push(worker, item / 10);
                        }
                        drained.lock().unwrap().push(item);
                        pool.done();
                    }
                });
            }
        });
        let mut seen = drained.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3, 10, 20, 30]);
    }

    #[test]
    fn driver_reproduces_the_serial_run_exactly() {
        let ctx = cross_task_ctx();
        let constraints = Constraints::new(4, 2).unwrap();
        let options = EngineOptions::default();
        let serial =
            incremental_cuts_with(&ctx, &constraints, &PruningConfig::all(), &options, None);
        assert!(
            serial.stats.rejected_duplicate > 0,
            "the fixture must exercise cross-subtree duplicates"
        );
        for split_threshold in [None, Some(1), Some(2), Some(5), Some(50)] {
            for tasks in [1, 2, 3, 4, ctx.candidate_outputs().len()] {
                let mut plan = None;
                for threads in [1, 2, 4] {
                    let label =
                        format!("split={split_threshold:?} tasks={tasks} threads={threads}");
                    let run = drive(&ctx, &constraints, options, tasks, split_threshold, threads);
                    assert_identical(&run.enumeration, &serial, &label);
                    assert_eq!(
                        run.task_nodes.iter().sum::<usize>(),
                        serial.stats.search_nodes,
                        "{label}: zero-waste splitting sums to the serial node count"
                    );
                    let plan = plan.get_or_insert_with(|| run.task_nodes.clone());
                    assert_eq!(
                        *plan, run.task_nodes,
                        "{label}: split plan depends on threads"
                    );
                }
            }
        }
        // A tiny threshold must actually exercise splitting.
        let run = drive(&ctx, &constraints, options, 1, Some(1), 1);
        assert!(
            run.task_nodes.len() > 1,
            "threshold 1 must split the single initial task"
        );
    }

    #[test]
    fn merge_handles_every_dedup_mode() {
        let ctx = cross_task_ctx();
        let constraints = Constraints::new(3, 2).unwrap();
        let pruning = PruningConfig::all();
        for dedup_mode in [DedupMode::DedupFirst, DedupMode::ValidateFirst] {
            let options = EngineOptions {
                max_search_nodes: None,
                dedup_mode,
            };
            let serial = incremental_cuts_with(&ctx, &constraints, &pruning, &options, None);
            for split_threshold in [None, Some(4)] {
                let par = drive(&ctx, &constraints, options, 3, split_threshold, 2);
                assert_identical(
                    &par.enumeration,
                    &serial,
                    &format!("{dedup_mode:?}/split={split_threshold:?}"),
                );
            }
        }
    }

    #[test]
    fn hand_run_tasks_merge_like_the_driver_for_any_merge_threads() {
        // Split → run → merge by hand, one task at a time.
        let ctx = cross_task_ctx();
        let constraints = Constraints::new(4, 2).unwrap();
        let pruning = PruningConfig::all();
        let options = EngineOptions::default();
        let driven = drive(&ctx, &constraints, options, 3, None, 1);
        for merge_threads in [1, 2, 8] {
            let outputs: Vec<TaskOutput> = initial_tasks(ctx.candidate_outputs().len(), 3)
                .iter()
                .map(|spec| run_task(&ctx, &constraints, &pruning, &options, None, spec).0)
                .collect();
            assert!(outputs.iter().all(|o| o.stats().search_nodes > 0));
            let merged = merge_tasks(&ctx, &options, outputs, merge_threads, None);
            let label = format!("merge threads={merge_threads}");
            assert_identical(&merged, &driven.enumeration, &label);
        }
    }

    #[test]
    fn budgeted_tasks_are_deterministic_and_never_split() {
        // A budget below the split threshold truncates tasks before they can split.
        let ctx = cross_task_ctx();
        let constraints = Constraints::new(4, 2).unwrap();
        let options = EngineOptions {
            max_search_nodes: Some(10),
            ..EngineOptions::default()
        };
        let base = drive(&ctx, &constraints, options, 3, None, 1);
        for (split_threshold, threads) in [(None, 3), (Some(10_000), 1), (Some(10_000), 3)] {
            let run = drive(&ctx, &constraints, options, 3, split_threshold, threads);
            let label = format!("split={split_threshold:?} threads={threads}");
            assert_identical(&run.enumeration, &base.enumeration, &label);
            assert_eq!(run.task_nodes, base.task_nodes, "{label}: no children");
        }
    }
}
