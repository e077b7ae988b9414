//! Fault isolation, cancellation, and deterministic fault injection.
//!
//! The sweep/explore engines compile many independent design points; one bad
//! point must never take down the process, hang a worker forever, or poison a
//! shared cache. This module provides the substrate all layers share:
//!
//! * [`CancelToken`] — an atomic cancellation flag with an optional deadline
//!   and an optional parent (the whole-run budget). Work stops at the next
//!   *checkpoint* (pass boundaries, estimator node loops, sweep-point entry),
//!   so cancellation is cooperative and outcomes are deterministic: a
//!   cancelled point reports a structured `TimedOut`; it never publishes
//!   partial state (cache publishes are whole values or nothing).
//! * [`WorkerFault`] — what an unwinding worker item becomes inside
//!   [`run_batch_isolated`](crate::par::run_batch_isolated): the panic payload
//!   message plus whether the unwind was a cooperative [`CancelUnwind`].
//! * [`FaultPlan`] — seeded (splitmix64, like the fuzzer) deterministic fault
//!   injection: pass panics and artificial worker stalls, assigned to named
//!   points by a label shuffle that is independent of job count and
//!   scheduling.
//! * A thread-local *point guard* ([`install_point`]) carrying the active
//!   token and armed faults through the compilation layers without plumbing
//!   a parameter through every signature. All checkpoint/injection sites are
//!   zero-cost when no guard is installed anywhere in the process (a single
//!   relaxed atomic load).
//! * [`lock_recover`] — poison-tolerant mutex acquisition: a worker that
//!   panicked while holding a shared lock (pool queues, result slots, the
//!   shared estimate cache) must not wedge every later lookup.

use crate::error::{IrError, IrResult};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Acquires a mutex, recovering the guard if a previous holder panicked.
///
/// Every shared `Mutex` in the workspace (pool queues, result slots, the
/// shared estimate cache) protects data that stays structurally valid across
/// a panic: entries are inserted whole or not at all. Recovering from poison
/// is therefore always safe here, and required — a panicked worker must not
/// wedge every subsequent lookup.
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Deadline instant plus the configured millisecond budget (kept for
    /// deterministic messages: the instant itself is machine state, the
    /// budget is what the user asked for).
    deadline: Option<(Instant, u64)>,
    parent: Option<Arc<TokenInner>>,
}

impl TokenInner {
    fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some((at, _)) = self.deadline {
            if Instant::now() >= at {
                return true;
            }
        }
        match &self.parent {
            Some(parent) => parent.is_cancelled(),
            None => false,
        }
    }

    /// A deterministic, machine-independent description of *why* the token
    /// is cancelled (used verbatim in `TimedOut` reports, so it must not
    /// contain wall-clock readings).
    fn reason(&self) -> String {
        if self.cancelled.load(Ordering::Relaxed) {
            return "cancelled".to_string();
        }
        if let Some((at, ms)) = self.deadline {
            if Instant::now() >= at {
                return format!("deadline of {ms}ms exceeded");
            }
        }
        match &self.parent {
            Some(parent) => format!("{} (run budget)", parent.reason()),
            None => "cancelled".to_string(),
        }
    }
}

/// A shareable cancellation token: an atomic flag, an optional deadline, and
/// an optional parent token (a whole-run budget chained above per-point
/// deadlines). Cloning shares the same underlying state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that never cancels until [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: None,
            }),
        }
    }

    /// A token that cancels `budget_ms` milliseconds from now.
    pub fn with_deadline_ms(budget_ms: u64) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some((Instant::now() + Duration::from_millis(budget_ms), budget_ms)),
                parent: None,
            }),
        }
    }

    /// A child token: cancels when this token cancels, when the optional
    /// per-child deadline passes, or when [`CancelToken::cancel`] is called
    /// on the child itself.
    pub fn child(&self, deadline_ms: Option<u64>) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: deadline_ms.map(|ms| (Instant::now() + Duration::from_millis(ms), ms)),
                parent: Some(self.inner.clone()),
            }),
        }
    }

    /// Flags the token (and every child) as cancelled.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True when the flag is set, the deadline has passed, or an ancestor is
    /// cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// The deterministic cancellation reason: an explicit `cancel()` reports
    /// `"cancelled"`, an expired deadline reports the configured budget
    /// (`"deadline of {ms}ms exceeded"`) — never the wall-clock overshoot, so
    /// the message is machine-independent.
    pub fn reason(&self) -> String {
        self.inner.reason()
    }
}

/// The panic payload of a cooperative cancellation unwind: raised by
/// [`checkpoint_or_unwind`] in infallible contexts (the estimator's node
/// loops), caught and classified back into [`IrError::Cancelled`] by the
/// nearest `catch_unwind` layer (pass body, pool worker, sweep point).
#[derive(Debug, Clone)]
pub struct CancelUnwind {
    /// The checkpoint site that observed the cancellation.
    pub site: String,
    /// The token's deterministic reason.
    pub detail: String,
}

/// What one unwinding worker item becomes under isolation: the panic payload
/// message, and whether the unwind was a cooperative cancellation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// The panic payload message (or the cancellation detail).
    pub message: String,
    /// True when the unwind was a [`CancelUnwind`], not a genuine panic.
    pub cancelled: bool,
}

impl fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cancelled {
            write!(f, "worker cancelled: {}", self.message)
        } else {
            write!(f, "worker panicked: {}", self.message)
        }
    }
}

/// Extracts a human-readable message from a panic payload (`&str` and
/// `String` payloads verbatim, everything else a placeholder).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(c) = payload.downcast_ref::<CancelUnwind>() {
        c.detail.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Classifies a caught panic payload into a [`WorkerFault`].
pub fn fault_from_panic(payload: Box<dyn Any + Send>) -> WorkerFault {
    match payload.downcast::<CancelUnwind>() {
        Ok(cancel) => WorkerFault {
            message: format!("{} at {}", cancel.detail, cancel.site),
            cancelled: true,
        },
        Err(other) => WorkerFault {
            message: panic_message(&*other),
            cancelled: false,
        },
    }
}

/// Classifies a caught panic payload into a structured [`IrError`]:
/// cooperative cancellation unwinds become [`IrError::Cancelled`], genuine
/// panics become [`IrError::WorkerPanic`] at `site`.
pub fn error_from_panic(site: &str, payload: Box<dyn Any + Send>) -> IrError {
    match payload.downcast::<CancelUnwind>() {
        Ok(cancel) => IrError::Cancelled {
            site: cancel.site,
            detail: cancel.detail,
        },
        Err(other) => IrError::WorkerPanic {
            site: site.to_string(),
            message: panic_message(&*other),
        },
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// One injected fault kind, assigned to a sweep-point label by a
/// [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the point's first pass body (isolated into `Panicked`).
    PassPanic,
    /// Artificial stall at compile start (with a per-point deadline this
    /// converts into a deterministic `TimedOut`).
    Stall,
}

impl FaultKind {
    /// Short name, as used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::PassPanic => "pass-panic",
            FaultKind::Stall => "stall",
        }
    }
}

/// A seeded, deterministic fault-injection plan: how many points of each
/// fault kind to afflict, which points (chosen by a seeded label shuffle),
/// and whether faults are transient (fire only on a point's first attempt,
/// so retries recover) or persistent.
///
/// Parsed from the CLI spec grammar
/// `seed=7,pass-panic=1,stall=1,stall-ms=200,transient`
/// (every key optional; counts default to 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Shuffle seed for the label assignment.
    pub seed: u64,
    /// Number of points afflicted with an injected pass panic.
    pub pass_panics: usize,
    /// Number of points afflicted with an artificial stall.
    pub stalls: usize,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// When true, faults fire only on attempt 0, so `--retries` recovers.
    pub transient: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            pass_panics: 0,
            stalls: 0,
            stall_ms: 100,
            transient: false,
        }
    }
}

/// Deterministic 64-bit mixer (splitmix64), shared with the fuzzer's RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Parses the `--inject-faults` spec grammar. See the type docs.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            if entry == "transient" {
                plan.transient = true;
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("malformed fault entry (expected key=value): '{entry}'"))?;
            let (key, value) = (key.trim(), value.trim());
            let parsed: u64 = value
                .parse()
                .map_err(|_| format!("invalid fault value '{value}' for '{key}'"))?;
            match key {
                "seed" => plan.seed = parsed,
                "pass-panic" => plan.pass_panics = parsed as usize,
                "stall" => plan.stalls = parsed as usize,
                "stall-ms" => plan.stall_ms = parsed,
                other => {
                    return Err(format!(
                        "unknown fault key '{other}' (expected seed, pass-panic, stall, \
                         stall-ms or transient)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.pass_panics + self.stalls == 0
    }

    /// Deterministically assigns fault kinds to distinct labels: a seeded
    /// Fisher–Yates shuffle of the label indices, then the first
    /// `pass_panics` get [`FaultKind::PassPanic`] and the next `stalls` get
    /// [`FaultKind::Stall`]. Counts beyond the label set are clamped.
    /// Independent of job count and scheduling by construction.
    pub fn assign(&self, labels: &[String]) -> BTreeMap<String, FaultKind> {
        let mut order: Vec<usize> = (0..labels.len()).collect();
        let mut state = self.seed;
        for i in (1..order.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut assignment = BTreeMap::new();
        let mut next = order.into_iter();
        let mut take = |count: usize, kind: FaultKind, map: &mut BTreeMap<String, FaultKind>| {
            for _ in 0..count {
                let Some(idx) = next.next() else { return };
                map.insert(labels[idx].clone(), kind);
            }
        };
        take(self.pass_panics, FaultKind::PassPanic, &mut assignment);
        take(self.stalls, FaultKind::Stall, &mut assignment);
        assignment
    }

    /// The per-point armed faults for `kind` under this plan.
    pub fn arm(&self, kind: FaultKind) -> PointFaults {
        let mut faults = PointFaults::default();
        match kind {
            FaultKind::PassPanic => faults.pass_panic = true,
            FaultKind::Stall => faults.stall_ms = Some(self.stall_ms),
        }
        faults
    }
}

/// The faults armed for one point attempt. Each fires at most once per
/// installed guard (i.e. per attempt).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointFaults {
    /// Panic inside the first pass body.
    pub pass_panic: bool,
    /// Sleep this long at compile start.
    pub stall_ms: Option<u64>,
}

impl PointFaults {
    /// True when nothing is armed.
    pub fn is_empty(&self) -> bool {
        !self.pass_panic && self.stall_ms.is_none()
    }
}

// ---------------------------------------------------------------------------
// The thread-local point guard and its checkpoint/injection sites
// ---------------------------------------------------------------------------

/// Process-wide count of installed point guards. Checkpoint and injection
/// sites early-return when zero, so the whole layer is one relaxed atomic
/// load when unused.
static ACTIVE_GUARDS: AtomicUsize = AtomicUsize::new(0);

struct PointCtx {
    token: CancelToken,
    /// One-shot firing state for the armed faults of this attempt.
    pass_panic: Cell<bool>,
    stall_ms: Cell<Option<u64>>,
}

thread_local! {
    static POINT: RefCell<Option<PointCtx>> = const { RefCell::new(None) };
}

/// Installs `token` (and optionally armed `faults`) as this thread's active
/// point context until the returned guard drops. Guards nest: dropping
/// restores the previous context. The compilation layers (pass manager,
/// estimator, compiler) consult the context at their checkpoint sites; pool
/// worker threads do not inherit it, so checkpoints and injections fire on
/// the point's coordinating thread — which is exactly what keeps outcomes
/// independent of the job count.
pub fn install_point(token: CancelToken, faults: Option<PointFaults>) -> PointGuard {
    let faults = faults.unwrap_or_default();
    let ctx = PointCtx {
        token,
        pass_panic: Cell::new(faults.pass_panic),
        stall_ms: Cell::new(faults.stall_ms),
    };
    let prev = POINT.with(|p| p.borrow_mut().replace(ctx));
    ACTIVE_GUARDS.fetch_add(1, Ordering::Relaxed);
    PointGuard {
        prev,
        _not_send: PhantomData,
    }
}

/// Scope guard returned by [`install_point`]; restores the previous point
/// context on drop. Not `Send`: it must drop on the installing thread.
pub struct PointGuard {
    prev: Option<PointCtx>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for PointGuard {
    fn drop(&mut self) {
        ACTIVE_GUARDS.fetch_sub(1, Ordering::Relaxed);
        let prev = self.prev.take();
        POINT.with(|p| *p.borrow_mut() = prev);
    }
}

/// Runs `f` with the thread's point context, if any.
fn with_point<R>(f: impl FnOnce(&PointCtx) -> R) -> Option<R> {
    if ACTIVE_GUARDS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    POINT.with(|p| p.borrow().as_ref().map(f))
}

/// Cancellation checkpoint for fallible contexts (pass boundaries): returns
/// [`IrError::Cancelled`] when the active token is cancelled. A no-op (one
/// relaxed load) when no guard is installed.
pub fn checkpoint(site: &str) -> IrResult<()> {
    match with_point(|ctx| {
        if ctx.token.is_cancelled() {
            Some(ctx.token.reason())
        } else {
            None
        }
    }) {
        Some(Some(detail)) => Err(IrError::Cancelled {
            site: site.to_string(),
            detail,
        }),
        _ => Ok(()),
    }
}

/// Cancellation checkpoint for infallible contexts (the estimator's node
/// loops): unwinds with a [`CancelUnwind`] payload, which the nearest
/// isolation layer classifies back into [`IrError::Cancelled`].
pub fn checkpoint_or_unwind(site: &str) {
    if let Some(Some(detail)) = with_point(|ctx| {
        if ctx.token.is_cancelled() {
            Some(ctx.token.reason())
        } else {
            None
        }
    }) {
        std::panic::panic_any(CancelUnwind {
            site: site.to_string(),
            detail,
        });
    }
}

/// Injection site: panics once per attempt when a pass panic is armed.
/// Placed inside the pass manager's isolated pass-body region, so the panic
/// exercises the real catch-and-classify machinery end to end.
pub fn injected_pass_panic(pass: &str) {
    let fire = with_point(|ctx| ctx.pass_panic.replace(false)).unwrap_or(false);
    if fire {
        panic!("injected fault: pass panic at '{pass}'");
    }
}

/// Injection site: sleeps once per attempt when a stall is armed.
pub fn injected_stall(_site: &str) {
    let ms = with_point(|ctx| ctx.stall_ms.replace(None)).flatten();
    if let Some(ms) = ms {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Installs a process-wide panic hook that silences the default report for
/// *expected* structured unwinds — cooperative [`CancelUnwind`]s and
/// `injected fault:` panics — while deferring everything else to the
/// previous hook. Used by the CLI so chaos runs don't spray backtraces for
/// faults that are isolated by design. Idempotent.
pub fn silence_expected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CancelUnwind>().is_some() {
                return;
            }
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned());
            if let Some(message) = &message {
                if message.starts_with("injected fault:") {
                    return;
                }
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recover_survives_a_poisoning_panic() {
        let mutex = Arc::new(Mutex::new(7_i32));
        let clone = mutex.clone();
        let result = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison");
        })
        .join();
        assert!(result.is_err());
        assert!(mutex.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*lock_recover(&mutex), 7);
        *lock_recover(&mutex) = 8;
        assert_eq!(*lock_recover(&mutex), 8);
    }

    #[test]
    fn cancel_token_flag_deadline_and_parent() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), "cancelled");

        let expired = CancelToken::with_deadline_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(expired.is_cancelled());
        assert_eq!(expired.reason(), "deadline of 0ms exceeded");

        let run = CancelToken::new();
        let child = run.child(None);
        assert!(!child.is_cancelled());
        run.cancel();
        assert!(child.is_cancelled(), "parent cancellation reaches children");
        assert!(child.reason().contains("run budget"));
    }

    #[test]
    fn fault_plan_parses_the_spec_grammar() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        let plan = FaultPlan::parse("seed=7,pass-panic=2,stall=1,stall-ms=50,transient").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.pass_panics, 2);
        assert_eq!(plan.stalls, 1);
        assert_eq!(plan.stall_ms, 50);
        assert!(plan.transient);
        for unknown in ["bogus=1", "store-read=1", "short-write=1"] {
            let err = FaultPlan::parse(unknown).unwrap_err();
            assert!(err.starts_with("unknown fault key"), "{unknown}: {err}");
        }
        assert!(FaultPlan::parse("pass-panic").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
    }

    #[test]
    fn fault_assignment_is_deterministic_and_distinct() {
        let labels: Vec<String> = (0..8).map(|i| format!("p{i:02}")).collect();
        let plan = FaultPlan::parse("seed=3,pass-panic=2,stall=2").unwrap();
        let a = plan.assign(&labels);
        let b = plan.assign(&labels);
        assert_eq!(a, b, "same seed, same assignment");
        assert_eq!(a.len(), 4, "distinct labels per fault");
        assert_eq!(
            a.values().filter(|&&k| k == FaultKind::PassPanic).count(),
            2
        );
        let other = FaultPlan::parse("seed=4,pass-panic=2,stall=2")
            .unwrap()
            .assign(&labels);
        assert!(a != other || labels.len() <= 4, "seeds shuffle differently");
        // Counts beyond the label set are clamped, never panic.
        let tiny: Vec<String> = vec!["only".to_string()];
        let clamped = plan.assign(&tiny);
        assert_eq!(clamped.len(), 1);
    }

    #[test]
    fn checkpoints_are_inert_without_a_guard_and_fire_with_one() {
        assert!(checkpoint("nowhere").is_ok());
        checkpoint_or_unwind("nowhere");
        injected_pass_panic("nowhere");

        let token = CancelToken::new();
        let guard = install_point(token.clone(), None);
        assert!(checkpoint("armed").is_ok());
        token.cancel();
        let err = checkpoint("pass 'lower'").unwrap_err();
        assert!(matches!(err, IrError::Cancelled { .. }), "{err}");
        assert!(err.to_string().contains("pass 'lower'"), "{err}");
        let unwind = std::panic::catch_unwind(|| checkpoint_or_unwind("estimator"))
            .expect_err("cancelled checkpoint must unwind");
        let fault = fault_from_panic(unwind);
        assert!(fault.cancelled);
        drop(guard);
        assert!(checkpoint("after-drop").is_ok(), "guard restores on drop");
    }

    #[test]
    fn injection_sites_fire_exactly_once_per_guard() {
        let faults = PointFaults {
            pass_panic: true,
            stall_ms: Some(20),
        };
        let _guard = install_point(CancelToken::new(), Some(faults));
        let panic = std::panic::catch_unwind(|| injected_pass_panic("construct"))
            .expect_err("armed pass panic fires");
        let fault = fault_from_panic(panic);
        assert!(!fault.cancelled);
        assert_eq!(fault.message, "injected fault: pass panic at 'construct'");
        // Second probe: already fired.
        injected_pass_panic("construct");

        let start = Instant::now();
        injected_stall("compile:start");
        assert!(start.elapsed() >= Duration::from_millis(20));
        // Second probe: the stall is disarmed, so it cannot sleep again.
        assert_eq!(with_point(|ctx| ctx.stall_ms.get()), Some(None));
        injected_stall("compile:start");
    }

    #[test]
    fn panic_classification_keeps_payload_messages() {
        let payload = std::panic::catch_unwind(|| panic!("boom {}", 42)).unwrap_err();
        let err = error_from_panic("pass 'lower'", payload);
        match &err {
            IrError::WorkerPanic { site, message } => {
                assert_eq!(site, "pass 'lower'");
                assert_eq!(message, "boom 42");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
        let cancel = std::panic::catch_unwind(|| {
            std::panic::panic_any(CancelUnwind {
                site: "estimator".to_string(),
                detail: "deadline of 5ms exceeded".to_string(),
            })
        })
        .unwrap_err();
        let err = error_from_panic("ignored", cancel);
        assert!(matches!(err, IrError::Cancelled { .. }), "{err}");
    }
}
