//! The quantum scheduler.
//!
//! Executor threads are pinned one per core (the engine's analog of Spark's
//! executor threads / Hadoop's task JVMs). Within a stage, tasks are handed
//! to idle threads in order; threads execute in strict round-robin quanta of
//! `quantum` instructions, which deterministically interleaves their memory
//! traffic through the shared LLC — the paper's "phase interleaving" source
//! of intra-phase heterogeneity. A barrier separates stages, exactly like
//! Spark stage boundaries and the Hadoop map→reduce wave.
//!
//! After every quantum the scheduler reports progress to an
//! [`ExecListener`] with the running thread's current call stack; the
//! profiler crate implements the listener to cut sampling units and take
//! stack snapshots (the JVMTI + `perf_event` analog).
//!
//! Every turn runs on the calling thread, one at a time, in round-robin core
//! order, so the counter stream, listener callbacks and fault log never
//! depend on how many worker threads the process has.

use std::collections::VecDeque;

use simprof_sim::perturb::MigrationClock;
use simprof_sim::{AccessCursor, CoreId, Machine, Perturbations};

use crate::faults::{FaultEvent, FaultLog, FaultPlan};
use crate::methods::MethodId;
use crate::work::{Job, Stage, Task};

/// Observer of scheduler progress. Implemented by the profiler.
pub trait ExecListener {
    /// Called after each executed quantum on `core`. `core_instrs` is the
    /// core's cumulative retired-instruction count, `stack` the call stack
    /// that was active during the quantum.
    fn on_progress(
        &mut self,
        core: CoreId,
        core_instrs: u64,
        stack: &[MethodId],
        machine: &Machine,
    );

    /// Called when a stage's barrier is reached.
    fn on_stage_end(&mut self, _stage: &str, _machine: &Machine) {}

    /// Called when a runtime fault fires or is recovered (executor crash,
    /// straggler detection, lost shuffle fetch, …), before the event is
    /// appended to the run's [`FaultLog`]. Default: ignore.
    fn on_fault(&mut self, _event: &FaultEvent, _machine: &Machine) {}
}

/// A listener that ignores everything (for cost-only runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullListener;

impl ExecListener for NullListener {
    fn on_progress(&mut self, _: CoreId, _: u64, _: &[MethodId], _: &Machine) {}
}

/// JVM runtime-noise model: garbage-collection / JIT bursts that steal
/// occasional turns from executor threads.
///
/// Real JVMTI profiles are never perfectly clean — some snapshots catch the
/// thread during GC safepoints or JIT compilation. Modelling this matters
/// beyond realism: it gives every sampling unit's feature vector natural
/// jitter, exactly like production profiles, instead of large sets of
/// bit-identical vectors.
#[derive(Debug, Clone, Copy)]
pub struct GcModel {
    /// The method reported while a GC burst runs (intern e.g.
    /// `jvm.GCTaskThread.run`).
    pub method: MethodId,
    /// Probability (parts per million) that any given turn is stolen by GC.
    pub probability_ppm: u32,
    /// Extra cycles a stolen turn costs (allocation stalls, safepoint).
    pub pause_cycles: u64,
    /// Seed for the per-turn decision stream.
    pub seed: u64,
}

/// Scheduler tuning.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Instructions executed per thread turn. Smaller quanta give finer
    /// interleaving and finer snapshot alignment at more scheduling overhead.
    pub quantum: u64,
    /// OS-noise model applied while the job runs.
    pub perturbations: Perturbations,
    /// JVM GC/JIT noise (None disables).
    pub gc: Option<GcModel>,
    /// Cold-restart point: when the given core's instruction counter crosses
    /// the given count, its private caches and its LLC domain are fully
    /// flushed — modelling a detailed simulator that fast-forwards to an
    /// arbitrary simulation point and starts with cold microarchitectural
    /// state. Used by the cold-start/warm-up validation experiment.
    pub cold_restart: Option<(usize, u64)>,
    /// Runtime fault-injection plan. The default ([`FaultPlan::none`]) is
    /// quiet: execution is byte-identical to a fault-free run.
    pub faults: FaultPlan,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            quantum: 2_500,
            perturbations: Perturbations::default(),
            gc: None,
            cold_restart: None,
            faults: FaultPlan::none(),
        }
    }
}

/// Executes [`Job`]s on a [`Machine`].
#[derive(Debug, Clone)]
pub struct Scheduler {
    config: SchedConfig,
}

/// One task attempt waiting for an executor.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    task: usize,
    attempt: u32,
}

struct Running<'a> {
    task: &'a Task,
    /// Index of the task within its stage.
    task_idx: usize,
    /// Attempt number (0 = original; crashes and speculation bump it).
    attempt: u32,
    item_idx: usize,
    done_in_item: u64,
    /// Task-relative retired instructions across this attempt.
    done_in_task: u64,
    /// If set, the executor crashes when `done_in_task` reaches this.
    crash_at: Option<u64>,
    /// Straggler slowdown multiple (1 = healthy).
    factor: u32,
    cursor: AccessCursor,
    access_credit: u64,
    stall_charged: u64,
    stack: Vec<MethodId>,
}

impl<'a> Running<'a> {
    fn new(
        task: &'a Task,
        task_idx: usize,
        attempt: u32,
        crash_at: Option<u64>,
        factor: u32,
    ) -> Self {
        let mut r = Self {
            task,
            task_idx,
            attempt,
            item_idx: 0,
            done_in_item: 0,
            done_in_task: 0,
            crash_at,
            factor,
            cursor: AccessCursor::new(
                task.items[0].region,
                task.items[0].pattern,
                task.items[0].seed,
            ),
            access_credit: 0,
            stall_charged: 0,
            stack: Vec::new(),
        };
        r.enter_item();
        r
    }

    fn enter_item(&mut self) {
        let item = &self.task.items[self.item_idx];
        self.cursor = AccessCursor::new(item.region, item.pattern, item.seed);
        self.done_in_item = 0;
        self.stall_charged = 0;
        self.stack.clear();
        self.stack.extend_from_slice(&self.task.base_path);
        self.stack.extend_from_slice(&item.path);
    }

    /// Advances to the next item; returns `false` when the task is finished.
    fn advance(&mut self) -> bool {
        if self.item_idx + 1 >= self.task.items.len() {
            return false;
        }
        self.item_idx += 1;
        self.enter_item();
        true
    }
}

/// How one call to [`step_attempt`] ended.
enum StepEnd {
    /// The turn budget ran out; the attempt stays on its core.
    Budget,
    /// The executor crashed (the crash event has already been delivered).
    Crashed,
    /// The attempt retired its last instruction.
    Finished,
}

/// The turn physics: runs one attempt on `core` until the budget runs out,
/// the executor crashes, or the attempt finishes, charging `machine` and
/// delivering fault events at their exact point in the cost stream.
/// [`RunState::turn_stack`] is re-captured after every chunk because
/// [`Running::advance`] resets the stack while the budget may still die
/// mid-item.
fn step_attempt(
    run: &mut Running,
    budget: &mut u64,
    machine: &mut Machine,
    rs: &mut RunState<'_>,
    plan: &FaultPlan,
    stage_idx: usize,
    core: CoreId,
) -> StepEnd {
    while *budget > 0 {
        let item = &run.task.items[run.item_idx];

        // Lost shuffle fetch: decided once, as the item starts; the
        // recovery re-fetch stalls this core.
        if run.done_in_item == 0
            && item.shuffle_bytes > 0
            && plan.fetch_lost(
                stage_idx as u64,
                run.task_idx as u64,
                run.item_idx as u64,
                run.attempt,
            )
        {
            let penalty = plan.refetch_stall(item.shuffle_bytes);
            machine.io_stall(core, penalty);
            rs.fault(
                FaultEvent::ShuffleFetchLost {
                    stage: stage_idx,
                    task: run.task_idx,
                    item: run.item_idx,
                    core,
                    bytes: item.shuffle_bytes,
                    penalty_cycles: penalty,
                },
                machine,
            );
        }

        let mut chunk = (*budget).min(item.instrs - run.done_in_item);
        if let Some(at) = run.crash_at {
            chunk = chunk.min(at - run.done_in_task);
        }
        machine.charge_instrs(core, chunk);
        let streaming = matches!(
            item.pattern,
            simprof_sim::AccessPattern::Sequential
                | simprof_sim::AccessPattern::Strided { stride_bytes: 0..=128 }
        );

        // Memory accesses, with sub-access credit carried across chunks so
        // low-intensity items still touch memory.
        run.access_credit += chunk * item.accesses_per_kinstr as u64;
        let n_acc = run.access_credit / 1000;
        run.access_credit %= 1000;
        machine.access_run(core, &mut run.cursor, n_acc, streaming);
        rs.accesses += n_acc;

        // IO stall charged proportionally to item progress.
        if item.io_stall_cycles > 0 {
            let due = item.io_stall_cycles * (run.done_in_item + chunk) / item.instrs;
            machine.io_stall(core, due - run.stall_charged);
            run.stall_charged = due;
        }

        // A straggling executor retires the same instructions but at a
        // fraction of the speed; the lost cycles surface as stall time,
        // like iowait or contention.
        if run.factor > 1 {
            machine.io_stall(core, chunk * (run.factor as u64 - 1));
        }

        run.done_in_item += chunk;
        run.done_in_task += chunk;
        *budget -= chunk;
        rs.turn_stack.clear();
        rs.turn_stack.extend_from_slice(&run.stack);

        // Executor crash: the rest of this turn dies with the executor;
        // requeue bookkeeping is the caller's (crash order: crash event
        // first, retry decision after).
        if run.crash_at == Some(run.done_in_task) {
            rs.fault(
                FaultEvent::ExecutorCrash {
                    stage: stage_idx,
                    task: run.task_idx,
                    attempt: run.attempt,
                    core,
                    lost_instrs: run.done_in_task,
                },
                machine,
            );
            return StepEnd::Crashed;
        }

        if run.done_in_item >= item.instrs && !run.advance() {
            return StepEnd::Finished;
        }
    }
    StepEnd::Budget
}

/// Mutable run-wide state threaded through every turn.
struct RunState<'l> {
    log: FaultLog,
    migration: MigrationClock,
    turn_counter: u64,
    /// Memory accesses issued, recorded once as `engine.accesses`.
    accesses: u64,
    /// The stack reported at the end of the current turn; one buffer for
    /// the whole run, cleared as each turn starts.
    turn_stack: Vec<MethodId>,
    cold_restart: Option<(usize, u64)>,
    listener: &'l mut dyn ExecListener,
}

impl RunState<'_> {
    /// Delivers a fault event to the listener, then appends it to the log.
    fn fault(&mut self, ev: FaultEvent, machine: &Machine) {
        self.listener.on_fault(&ev, machine);
        self.log.push(ev);
    }
}

impl Scheduler {
    /// Creates a scheduler.
    pub fn new(config: SchedConfig) -> Self {
        assert!(config.quantum > 0, "quantum must be positive");
        Self { config }
    }

    /// Runs `job` to completion on `machine`, reporting to `listener`, and
    /// returns the log of every runtime fault injected and recovered.
    ///
    /// Tasks that contain no items are skipped. Stages execute in order with
    /// a barrier between them; within a stage, task `i` goes to the first
    /// thread that becomes idle, in deterministic round-robin order.
    ///
    /// Fault recovery (driven by [`SchedConfig::faults`]):
    /// * **Executor crashes** discard the attempt's progress (its machine
    ///   cost stays charged — lost work is still work) and re-queue the task
    ///   at the back of the stage, up to `max_retries` times.
    /// * **Stragglers** run with a reduced per-turn budget and pay extra
    ///   stall cycles; if speculation is on, a twin attempt races them and
    ///   the first finisher wins, killing the other copy.
    /// * **Lost shuffle fetches** re-charge the fetch through the plan's
    ///   network + disk cost models.
    pub fn run(
        &self,
        machine: &mut Machine,
        job: &Job,
        listener: &mut dyn ExecListener,
    ) -> FaultLog {
        let _span = simprof_obs::span!("engine.run");
        let cores = machine.core_count();
        let mut rs = RunState {
            log: FaultLog::new(),
            migration: MigrationClock::new(self.config.perturbations, cores),
            turn_counter: 0,
            accesses: 0,
            turn_stack: Vec::new(),
            cold_restart: self.config.cold_restart,
            listener,
        };

        for (stage_idx, stage) in job.stages.iter().enumerate() {
            let _stage_span = simprof_obs::span!(&stage.name);
            let mut state = StageState {
                pending: stage
                    .tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.items.is_empty())
                    .map(|(i, _)| Attempt { task: i, attempt: 0 })
                    .collect(),
                completed: vec![false; stage.tasks.len()],
                speculated: vec![false; stage.tasks.len()],
            };
            let mut running: Vec<Option<Running>> = (0..cores).map(|_| None).collect();
            loop {
                let mut idle = true;
                for core in 0..cores {
                    if self.core_round(
                        &mut rs,
                        machine,
                        stage,
                        stage_idx,
                        &mut state,
                        &mut running,
                        core,
                    ) {
                        idle = false;
                    }
                }
                if idle {
                    break;
                }
            }
            rs.listener.on_stage_end(&stage.name, machine);
            // One trajectory sample per stage: cumulative quanta so far
            // (no-op without an active obs session).
            simprof_obs::timeseries_push("engine.quanta_total", rs.turn_counter as f64);
        }
        // Aggregated locally, recorded once: hot-loop turns never touch the
        // registry.
        simprof_obs::counter_add("engine.quanta", rs.turn_counter);
        simprof_obs::counter_add("engine.accesses", rs.accesses);
        simprof_obs::counter_add("engine.fault_events", rs.log.len() as u64);
        rs.log
    }

    /// One round-robin visit to `core`: dispatch if idle, then run a full
    /// turn — crash requeue, task completion, speculation kills and the
    /// within-budget dispatch of follow-on attempts included — and the turn
    /// postlude. Returns `false` when the core had nothing to do.
    #[allow(clippy::too_many_arguments)]
    fn core_round<'a>(
        &self,
        rs: &mut RunState<'_>,
        machine: &mut Machine,
        stage: &'a Stage,
        stage_idx: usize,
        state: &mut StageState,
        running: &mut [Option<Running<'a>>],
        core: CoreId,
    ) -> bool {
        if running[core].is_none() {
            running[core] = self.dispatch(rs, machine, state, stage, stage_idx, core);
        }
        let Some(run) = running[core].as_ref() else {
            return false;
        };

        // One turn: consume a full quantum of instructions, even if that
        // spans several (small) work items — keeping threads fair in
        // virtual time regardless of item granularity. The stack reported
        // to the listener is the one active at the end of the turn, which
        // is exactly what a sampling profiler would observe. Stragglers get
        // a proportionally smaller budget: they fall behind their peers in
        // virtual time.
        let mut budget = (self.config.quantum / run.factor.max(1) as u64).max(1);
        rs.turn_stack.clear();
        let plan = &self.config.faults;
        while budget > 0 {
            let Some(run) = running[core].as_mut() else {
                break;
            };
            let end = step_attempt(run, &mut budget, machine, rs, plan, stage_idx, core);
            let (t, a) = (run.task_idx, run.attempt);
            match end {
                StepEnd::Budget => break,
                StepEnd::Crashed => {
                    // Progress is lost, the task goes back in the queue
                    // (bounded by the retry budget), and the rest of this
                    // turn dies with the executor.
                    running[core] = None;
                    if !state.completed[t] {
                        if a < plan.max_retries {
                            state.pending.push_back(Attempt { task: t, attempt: a + 1 });
                        } else {
                            let ev = FaultEvent::RetriesExhausted {
                                stage: stage_idx,
                                task: t,
                                attempts: a + 1,
                            };
                            rs.fault(ev, machine);
                        }
                    }
                    break;
                }
                StepEnd::Finished => {
                    // Attempt finished. First finisher completes the task;
                    // a losing speculative twin is killed on the spot. A
                    // fresh task (if any) continues within the same budget.
                    running[core] = None;
                    if !state.completed[t] {
                        state.completed[t] = true;
                        if state.speculated[t] {
                            let ev = FaultEvent::SpeculativeWin {
                                stage: stage_idx,
                                task: t,
                                winner_attempt: a,
                            };
                            rs.fault(ev, machine);
                            for slot in running.iter_mut() {
                                if slot.as_ref().is_some_and(|r| r.task_idx == t) {
                                    *slot = None;
                                }
                            }
                        }
                    }
                    running[core] = self.dispatch(rs, machine, state, stage, stage_idx, core);
                }
            }
        }
        self.turn_postlude(rs, machine, core);
        true
    }

    /// End-of-turn bookkeeping: GC/JIT noise, the one-shot cold restart,
    /// migration noise, and the listener progress callback.
    fn turn_postlude(&self, rs: &mut RunState<'_>, machine: &mut Machine, core: CoreId) {
        // GC/JIT noise: occasionally a turn is observed inside the JVM
        // runtime instead of the executor's own stack.
        rs.turn_counter += 1;
        if let Some(gc) = self.config.gc {
            let h = gc_hash(gc.seed, core as u64, rs.turn_counter);
            if (h % 1_000_000) < gc.probability_ppm as u64 {
                machine.io_stall(core, gc.pause_cycles);
                rs.turn_stack.clear();
                rs.turn_stack.push(gc.method);
            }
        }

        let total = machine.counters(core).instructions;
        if let Some((target_core, at)) = rs.cold_restart {
            if core == target_core && total >= at {
                machine.flush_core_fraction(core, 1.0, 0xC01D);
                // Only the restarted core's node goes cold; other nodes'
                // LLCs are unaffected by a local restart.
                machine.flush_domain_llc(core, 1.0, 0xC01D);
                rs.cold_restart = None;
            }
        }
        rs.migration.poll(machine, core, total);
        rs.listener.on_progress(core, total, &rs.turn_stack, machine);
    }

    /// Starts the next runnable attempt for `core`: pops pending attempts
    /// (skipping tasks a twin already completed), rolls the attempt's crash
    /// point and straggler factor, and — for a fresh straggler — enqueues a
    /// speculative twin when the plan allows one.
    fn dispatch<'a>(
        &self,
        rs: &mut RunState<'_>,
        machine: &Machine,
        state: &mut StageState,
        stage: &'a Stage,
        stage_idx: usize,
        core: usize,
    ) -> Option<Running<'a>> {
        let plan = &self.config.faults;
        while let Some(att) = state.pending.pop_front() {
            if state.completed[att.task] {
                continue;
            }
            let task = &stage.tasks[att.task];
            let crash_at = plan.crash_point(
                stage_idx as u64,
                att.task as u64,
                att.attempt,
                task.total_instrs(),
            );
            let factor = plan.straggler_factor_for(stage_idx as u64, att.task as u64, att.attempt);
            if factor > 1 {
                let ev = FaultEvent::Straggler {
                    stage: stage_idx,
                    task: att.task,
                    attempt: att.attempt,
                    core,
                    factor,
                };
                rs.fault(ev, machine);
                if plan.speculative && !state.speculated[att.task] {
                    state.speculated[att.task] = true;
                    state.pending.push_back(Attempt { task: att.task, attempt: att.attempt + 1 });
                    let ev = FaultEvent::SpeculativeClone {
                        stage: stage_idx,
                        task: att.task,
                        original_attempt: att.attempt,
                    };
                    rs.fault(ev, machine);
                }
            }
            simprof_obs::counter_add("engine.attempts_dispatched", 1);
            return Some(Running::new(task, att.task, att.attempt, crash_at, factor));
        }
        None
    }
}

/// Per-stage recovery bookkeeping.
struct StageState {
    /// Attempts waiting for an executor, in dispatch order.
    pending: VecDeque<Attempt>,
    /// Tasks whose work is done (first finisher wins under speculation).
    completed: Vec<bool>,
    /// Tasks that already have a speculative twin (at most one each).
    speculated: Vec<bool>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new(SchedConfig::default())
    }
}

/// SplitMix64-style mix for the per-turn GC decision.
fn gc_hash(seed: u64, core: u64, turn: u64) -> u64 {
    let mut z =
        seed ^ core.wrapping_mul(0xA24B_AED4_963E_E407) ^ turn.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{MethodRegistry, OpClass};
    use crate::work::{Stage, WorkItem};
    use simprof_sim::{AccessPattern, MachineConfig, Region};

    struct Recorder {
        progress: Vec<(CoreId, u64, Vec<MethodId>)>,
        stages: Vec<String>,
    }

    impl ExecListener for Recorder {
        fn on_progress(&mut self, core: CoreId, instrs: u64, stack: &[MethodId], _: &Machine) {
            self.progress.push((core, instrs, stack.to_vec()));
        }
        fn on_stage_end(&mut self, stage: &str, _: &Machine) {
            self.stages.push(stage.to_owned());
        }
    }

    fn setup() -> (Machine, MethodRegistry) {
        (Machine::new(MachineConfig::scaled(2)), MethodRegistry::new())
    }

    fn item(path: Vec<MethodId>, instrs: u64) -> WorkItem {
        WorkItem::compute(path, instrs, 50, AccessPattern::Sequential, Region::new(0x1000, 4096), 1)
    }

    #[test]
    fn executes_all_instructions() {
        let (mut m, _r) = setup();
        let job = Job::new(vec![Stage::new(
            "s0",
            vec![
                Task::new(vec![], vec![item(vec![], 10_000)]),
                Task::new(vec![], vec![item(vec![], 6_000)]),
                Task::new(vec![], vec![item(vec![], 4_000)]),
            ],
        )]);
        Scheduler::default().run(&mut m, &job, &mut NullListener);
        let total: u64 = (0..2).map(|c| m.counters(c).instructions).sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn stacks_follow_items_and_tasks() {
        let (mut m, mut r) = setup();
        let base = r.intern("Executor.run", OpClass::Framework);
        let map = r.intern("Mapper.map", OpClass::Map);
        let sort = r.intern("Sorter.sort", OpClass::Sort);
        let job = Job::new(vec![Stage::new(
            "s0",
            vec![Task::new(vec![base], vec![item(vec![map], 5_000), item(vec![sort], 5_000)])],
        )]);
        let mut rec = Recorder { progress: Vec::new(), stages: Vec::new() };
        Scheduler::new(SchedConfig { quantum: 1_000, ..Default::default() })
            .run(&mut m, &job, &mut rec);
        let stacks: Vec<&Vec<MethodId>> = rec.progress.iter().map(|(_, _, s)| s).collect();
        assert!(stacks.iter().any(|s| **s == vec![base, map]));
        assert!(stacks.iter().any(|s| **s == vec![base, sort]));
        // Map quanta come strictly before sort quanta.
        let first_sort = stacks.iter().position(|s| **s == vec![base, sort]).unwrap();
        assert!(stacks[..first_sort].iter().all(|s| **s == vec![base, map]));
        assert_eq!(rec.stages, vec!["s0"]);
    }

    #[test]
    fn tasks_interleave_round_robin_across_cores() {
        let (mut m, _r) = setup();
        let job = Job::new(vec![Stage::new(
            "s0",
            vec![
                Task::new(vec![], vec![item(vec![], 4_000)]),
                Task::new(vec![], vec![item(vec![], 4_000)]),
            ],
        )]);
        let mut rec = Recorder { progress: Vec::new(), stages: Vec::new() };
        Scheduler::new(SchedConfig { quantum: 1_000, ..Default::default() })
            .run(&mut m, &job, &mut rec);
        let cores: Vec<CoreId> = rec.progress.iter().map(|&(c, _, _)| c).collect();
        assert_eq!(cores, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn stage_barrier_orders_stages() {
        let (mut m, mut r) = setup();
        let a = r.intern("A", OpClass::Map);
        let b = r.intern("B", OpClass::Reduce);
        let job = Job::new(vec![
            Stage::new("map", vec![Task::new(vec![], vec![item(vec![a], 3_000)])]),
            Stage::new("reduce", vec![Task::new(vec![], vec![item(vec![b], 3_000)])]),
        ]);
        let mut rec = Recorder { progress: Vec::new(), stages: Vec::new() };
        Scheduler::new(SchedConfig { quantum: 1_000, ..Default::default() })
            .run(&mut m, &job, &mut rec);
        let first_b = rec.progress.iter().position(|(_, _, s)| s.contains(&b)).unwrap();
        assert!(rec.progress[..first_b].iter().all(|(_, _, s)| s.contains(&a)));
        assert_eq!(rec.stages, vec!["map", "reduce"]);
    }

    #[test]
    fn io_stalls_charged_fully() {
        let (mut m, _r) = setup();
        let mut it = item(vec![], 10_000);
        it.io_stall_cycles = 55_555;
        let job = Job::new(vec![Stage::new("io", vec![Task::new(vec![], vec![it])])]);
        Scheduler::default().run(&mut m, &job, &mut NullListener);
        assert_eq!(m.counters(0).io_stall_cycles, 55_555);
    }

    #[test]
    fn empty_tasks_and_stages_are_safe() {
        let (mut m, _r) = setup();
        let job = Job::new(vec![
            Stage::new("empty", vec![]),
            Stage::new("hollow", vec![Task::new(vec![], vec![])]),
        ]);
        let mut rec = Recorder { progress: Vec::new(), stages: Vec::new() };
        Scheduler::default().run(&mut m, &job, &mut rec);
        assert!(rec.progress.is_empty());
        assert_eq!(rec.stages, vec!["empty", "hollow"]);
    }

    #[test]
    fn more_tasks_than_cores_all_complete() {
        let (mut m, _r) = setup();
        let tasks: Vec<Task> =
            (0..7).map(|_| Task::new(vec![], vec![item(vec![], 2_000)])).collect();
        let job = Job::new(vec![Stage::new("s", tasks)]);
        Scheduler::default().run(&mut m, &job, &mut NullListener);
        let total: u64 = (0..2).map(|c| m.counters(c).instructions).sum();
        assert_eq!(total, 14_000);
    }

    #[test]
    fn gc_noise_reports_gc_stacks_and_costs_cycles() {
        let (mut m, mut r) = setup();
        let gc_m = r.intern("jvm.GCTaskThread.run", OpClass::Framework);
        let job =
            Job::new(vec![Stage::new("s", vec![Task::new(vec![], vec![item(vec![], 400_000)])])]);
        let mut rec = Recorder { progress: Vec::new(), stages: Vec::new() };
        let cfg = SchedConfig {
            quantum: 1_000,
            gc: Some(GcModel { method: gc_m, probability_ppm: 50_000, pause_cycles: 500, seed: 3 }),
            ..Default::default()
        };
        Scheduler::new(cfg).run(&mut m, &job, &mut rec);
        let gc_turns = rec.progress.iter().filter(|(_, _, s)| s == &vec![gc_m]).count();
        // ~5% of 400 turns.
        assert!(gc_turns > 5 && gc_turns < 60, "{gc_turns}");
        assert!(m.counters(0).io_stall_cycles >= gc_turns as u64 * 500);
    }

    #[test]
    fn cold_restart_flushes_caches_once() {
        let (mut m, _r) = setup();
        // One long streaming task: after warm-up, hits; at the restart point
        // the caches go cold and misses spike again.
        let job =
            Job::new(vec![Stage::new("s", vec![Task::new(vec![], vec![item(vec![], 100_000)])])]);
        struct MissWatch {
            at: u64,
            before: Option<u64>,
            after: Option<u64>,
        }
        impl ExecListener for MissWatch {
            fn on_progress(&mut self, core: CoreId, instrs: u64, _: &[MethodId], m: &Machine) {
                if core != 0 {
                    return;
                }
                if instrs < self.at {
                    self.before = Some(m.counters(0).l1_misses);
                } else if self.after.is_none() {
                    self.after = Some(m.counters(0).l1_misses);
                }
            }
        }
        let mut watch = MissWatch { at: 50_000, before: None, after: None };
        let cfg =
            SchedConfig { quantum: 1_000, cold_restart: Some((0, 50_000)), ..Default::default() };
        Scheduler::new(cfg).run(&mut m, &job, &mut watch);
        let before = watch.before.unwrap();
        let final_misses = m.counters(0).l1_misses;
        // The region is 4 KiB = 64 lines; warm traffic would add ~0 misses
        // after the first pass, so the post-restart delta must show a fresh
        // cold pass.
        assert!(
            final_misses >= before + 32,
            "cold restart must re-miss: before {before}, final {final_misses}"
        );
    }

    /// The worker-thread count must not change the counter stream, progress
    /// callbacks, or fault log, bit for bit — under a chaotic plan with
    /// crashes, stragglers, lost fetches, GC noise, and mixed access
    /// patterns.
    #[test]
    fn parallel_simulation_is_bit_identical_to_serial() {
        use crate::faults::FaultPlan;

        let run_with = |threads: usize| {
            rayon::set_threads(threads);
            let mut m = Machine::new(MachineConfig::scaled(4));
            let mut r = MethodRegistry::new();
            let gc_m = r.intern("jvm.GCTaskThread.run", OpClass::Framework);
            let tasks: Vec<Task> = (0..9)
                .map(|i| {
                    let mut a = item(vec![], 20_000 + i * 3_000);
                    if i % 3 == 0 {
                        a.pattern = AccessPattern::Random;
                    }
                    let b = item(vec![], 8_000).with_io_stall(9_000).with_shuffle_bytes(1 << 20);
                    Task::new(vec![], vec![a, b])
                })
                .collect();
            let job = Job::new(vec![
                Stage::new("map", tasks),
                Stage::new("reduce", vec![Task::new(vec![], vec![item(vec![], 30_000)])]),
            ]);
            let plan = FaultPlan { speculative: false, ..FaultPlan::uniform(120_000, 77) };
            let cfg = SchedConfig {
                quantum: 1_000,
                gc: Some(GcModel {
                    method: gc_m,
                    probability_ppm: 40_000,
                    pause_cycles: 700,
                    seed: 5,
                }),
                faults: plan,
                ..Default::default()
            };
            let mut rec = Recorder { progress: Vec::new(), stages: Vec::new() };
            let log = Scheduler::new(cfg).run(&mut m, &job, &mut rec);
            let counters: Vec<_> = (0..4).map(|c| m.counters(c)).collect();
            (log, counters, rec.progress, rec.stages)
        };

        let serial = run_with(1);
        for threads in [2, 8] {
            let parallel = run_with(threads);
            assert_eq!(serial.0, parallel.0, "fault log diverged at {threads} threads");
            assert_eq!(serial.1, parallel.1, "counters diverged at {threads} threads");
            assert_eq!(serial.2, parallel.2, "progress diverged at {threads} threads");
            assert_eq!(serial.3, parallel.3, "stages diverged at {threads} threads");
        }
        rayon::set_threads(1);
        assert!(!serial.0.is_empty(), "chaos plan must actually inject faults");
    }

    #[test]
    fn deterministic_end_state() {
        let run_once = || {
            let (mut m, _r) = setup();
            let tasks: Vec<Task> = (0..5)
                .map(|i| {
                    let mut it = item(vec![], 3_000 + i * 500);
                    it.pattern = AccessPattern::Random;
                    Task::new(vec![], vec![it])
                })
                .collect();
            let job = Job::new(vec![Stage::new("s", tasks)]);
            Scheduler::default().run(&mut m, &job, &mut NullListener);
            (m.counters(0), m.counters(1))
        };
        assert_eq!(run_once(), run_once());
    }
}
