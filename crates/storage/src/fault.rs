//! Deterministic fault injection: seedable plans and a faulty-disk
//! decorator.
//!
//! A [`FaultPlan`] decides, per disk operation, whether to inject a fault
//! and of what [`FaultKind`]. Plans combine two trigger styles:
//!
//! * **probabilities** — each matching operation faults with probability
//!   `p`, drawn from a seeded xorshift generator, so a given seed replays
//!   the exact same fault sequence;
//! * **fault-on-Nth schedules** — the `n`-th matching operation from now
//!   faults (the style the unit tests use for pinpoint failures).
//!
//! [`FaultyDisk`] wraps any [`Disk`] and consults the plan before every
//! operation. Failing kinds return [`Error::Storage`]; the *lying* kinds
//! ([`FaultKind::Torn`], [`FaultKind::Corrupt`]) damage page payloads so
//! the buffer pool's checksum verification can prove it catches them.
//! Damage is confined to payload bytes (`>= PAGE_HEADER`) — a fault model
//! where the injector shreds the checksum field itself tests nothing.
//!
//! Plans are cheap to clone and fully shared: arming a trigger on one
//! clone is seen by the disk holding another.

use crate::disk::Disk;
use crate::invariants::{self, rank};
use crate::page::{Page, PageId, PAGE_HEADER, PAGE_SIZE};
use crate::stats::IoStats;
use hdsj_core::{Error, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The disk operations a fault can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `Disk::read_page`.
    Read,
    /// `Disk::write_page`.
    Write,
    /// `Disk::alloc_page`.
    Alloc,
}

impl OpKind {
    /// Lower-case name used in error messages and fault specs.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Alloc => "alloc",
        }
    }
}

/// What an injected fault does to the operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails once with a storage error; an identical retry
    /// may succeed. Models bus resets, briefly unreachable devices.
    Transient,
    /// The targeted operation kind is dead from now on: every later
    /// matching operation fails. Models a failed device.
    Persistent,
    /// Writes only: a prefix of the new page image reaches the medium,
    /// the rest keeps the old bytes, and the write reports failure.
    /// Models power loss mid-write.
    Torn,
    /// The payload is bit-flipped. A corrupt *write* persists the damaged
    /// image and reports success; a corrupt *read* delivers damaged
    /// bytes. Either way the error surfaces only when the pool's checksum
    /// check catches it.
    Corrupt,
}

impl FaultKind {
    /// Lower-case name used in error messages and fault specs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Persistent => "persistent",
            FaultKind::Torn => "torn",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// A fault-on-Nth schedule entry. `op == None` matches any operation.
struct Trigger {
    op: Option<OpKind>,
    countdown: u64,
    kind: FaultKind,
}

/// A probabilistic entry. `op == None` matches any operation.
struct ProbRule {
    op: Option<OpKind>,
    p: f64,
    kind: FaultKind,
}

/// A seeded crash fault: the `countdown`-th hit of the named checkpoint
/// aborts the process (no unwinding, no destructors — the hardest kill a
/// test can deliver in-process). Exercised only through child processes
/// by the kill-and-restart chaos harness.
struct CrashRule {
    name: String,
    countdown: u64,
}

struct PlanState {
    rng: u64,
    probs: Vec<ProbRule>,
    triggers: Vec<Trigger>,
    dead: Vec<OpKind>,
    crashes: Vec<CrashRule>,
}

impl PlanState {
    fn next_u64(&mut self) -> u64 {
        // xorshift64: fast, deterministic, good enough for fault dice.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn has_work(&self) -> bool {
        !self.probs.is_empty()
            || !self.triggers.is_empty()
            || !self.dead.is_empty()
            || !self.crashes.is_empty()
    }

    fn decide(&mut self, op: OpKind) -> Option<FaultKind> {
        if self.dead.contains(&op) {
            return Some(FaultKind::Persistent);
        }
        let mut fired: Option<FaultKind> = None;
        // Every matching countdown advances on every matching op, whether
        // or not an earlier rule already fired — schedules count
        // operations, not survivors.
        let mut i = 0;
        while i < self.triggers.len() {
            let matches = self.triggers[i].op.is_none_or(|o| o == op);
            if matches {
                self.triggers[i].countdown -= 1;
                if self.triggers[i].countdown == 0 {
                    let t = self.triggers.swap_remove(i);
                    if t.kind == FaultKind::Persistent {
                        self.kill(t.op, op);
                    }
                    fired = fired.or(Some(t.kind));
                    continue;
                }
            }
            i += 1;
        }
        if fired.is_some() {
            return fired;
        }
        for i in 0..self.probs.len() {
            if self.probs[i].op.is_none_or(|o| o == op) {
                let roll = self.next_f64();
                if roll < self.probs[i].p {
                    let (rule_op, kind) = (self.probs[i].op, self.probs[i].kind);
                    if kind == FaultKind::Persistent {
                        self.kill(rule_op, op);
                    }
                    return Some(kind);
                }
            }
        }
        None
    }

    /// Marks the ops matched by a persistent rule as dead.
    fn kill(&mut self, rule_op: Option<OpKind>, hit: OpKind) {
        let ops: &[OpKind] = match rule_op {
            Some(_) => &[hit],
            None => &[OpKind::Read, OpKind::Write, OpKind::Alloc],
        };
        for &o in ops {
            if !self.dead.contains(&o) {
                self.dead.push(o);
            }
        }
    }
}

/// A seedable, shareable fault schedule. See the module docs for the
/// trigger styles; see [`FaultPlan::parse`] for the textual spec used by
/// the CLI's `--inject-faults`.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

struct PlanInner {
    /// Fast path: disks skip the mutex entirely while nothing is
    /// configured (the common case — every engine carries a plan).
    armed: AtomicBool,
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// An empty plan seeded with `seed`. Injects nothing until rules are
    /// added.
    pub fn new(seed: u64) -> FaultPlan {
        // splitmix64 scrambles the seed so 0/1/2… give unrelated streams
        // (and never the all-zero xorshift fixed point).
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultPlan {
            inner: Arc::new(PlanInner {
                armed: AtomicBool::new(false),
                state: Mutex::new(PlanState {
                    rng: z | 1,
                    probs: Vec::new(),
                    triggers: Vec::new(),
                    dead: Vec::new(),
                    crashes: Vec::new(),
                }),
            }),
        }
    }

    /// An empty, disarmed plan (what every engine starts with).
    pub fn empty() -> FaultPlan {
        FaultPlan::new(0)
    }

    /// True when at least one rule is active.
    pub fn is_armed(&self) -> bool {
        // ORDERING: lock-free fast path; a stale read only means one extra
        // (or one skipped) trip through the state mutex, which then makes
        // the authoritative decision under its own happens-before.
        self.inner.armed.load(Ordering::Relaxed)
    }

    fn rearm(&self, state: &PlanState) {
        // ORDERING: written while holding the state mutex (the `state`
        // borrow proves it); readers that act on it re-check under that
        // same mutex, so this flag is purely advisory.
        self.inner.armed.store(state.has_work(), Ordering::Relaxed);
    }

    /// Each operation matching `op` (`None` = any) faults as `kind` with
    /// probability `p`.
    pub fn probability(&self, op: Option<OpKind>, p: f64, kind: FaultKind) {
        let _rank = invariants::ordered(rank::FAULT, "fault.state");
        let mut st = self.inner.state.lock();
        st.probs.push(ProbRule { op, p, kind });
        self.rearm(&st);
    }

    /// The `n`-th (1-based) operation matching `op` from now faults as
    /// `kind`.
    pub fn on_nth(&self, op: Option<OpKind>, n: u64, kind: FaultKind) {
        let _rank = invariants::ordered(rank::FAULT, "fault.state");
        let mut st = self.inner.state.lock();
        st.triggers.push(Trigger {
            op,
            countdown: n.max(1),
            kind,
        });
        self.rearm(&st);
    }

    /// Clears every rule (probabilities, schedules, dead ops, crash
    /// points).
    pub fn clear(&self) {
        let _rank = invariants::ordered(rank::FAULT, "fault.state");
        let mut st = self.inner.state.lock();
        st.probs.clear();
        st.triggers.clear();
        st.dead.clear();
        st.crashes.clear();
        self.rearm(&st);
    }

    /// Arms a crash fault: the `n`-th (1-based) hit of the checkpoint
    /// named `name` aborts the process. See [`FaultPlan::crash_point`].
    pub fn crash_at(&self, name: &str, n: u64) {
        let _rank = invariants::ordered(rank::FAULT, "fault.state");
        let mut st = self.inner.state.lock();
        st.crashes.push(CrashRule {
            name: name.to_string(),
            countdown: n.max(1),
        });
        self.rearm(&st);
    }

    /// Remaining hits before the crash rule for `name` fires, if armed —
    /// introspection for tests (the firing itself is untestable
    /// in-process).
    pub fn crash_countdown(&self, name: &str) -> Option<u64> {
        let _rank = invariants::ordered(rank::FAULT, "fault.state");
        let st = self.inner.state.lock();
        st.crashes
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.countdown)
    }

    /// A named checkpoint in the checkpoint/recovery machinery. With a
    /// matching armed crash rule whose countdown reaches zero, the
    /// process dies on the spot via `std::process::abort` — no
    /// destructors, no flushes, exactly the torn state a power cut or
    /// SIGKILL leaves behind. Call sites name the durability boundaries
    /// (`msj.assign_sealed`, `sort.run_sealed`, `sort.merge_sealed`,
    /// `msj.sort_sealed`) so the chaos harness can kill a child `hdsj` at
    /// every one of them.
    pub fn crash_point(&self, name: &str) {
        if !self.is_armed() {
            return;
        }
        let _rank = invariants::ordered(rank::FAULT, "fault.state");
        let mut st = self.inner.state.lock();
        let mut fire = false;
        for c in &mut st.crashes {
            if c.name == name {
                c.countdown -= 1;
                if c.countdown == 0 {
                    fire = true;
                }
            }
        }
        if fire {
            drop(st);
            eprintln!("fault: crash point `{name}` reached, aborting");
            std::process::abort();
        }
    }

    /// Consulted by [`FaultyDisk`] before each operation.
    pub fn decide(&self, op: OpKind) -> Option<FaultKind> {
        if !self.is_armed() {
            return None;
        }
        let _rank = invariants::ordered(rank::FAULT, "fault.state");
        let mut st = self.inner.state.lock();
        let fault = st.decide(op);
        self.rearm(&st);
        fault
    }

    /// Flips a handful of payload bits (offsets `>= PAGE_HEADER`, so the
    /// checksum field itself stays intact and the damage is detectable).
    fn corrupt_payload(&self, page: &mut Page) {
        let _rank = invariants::ordered(rank::FAULT, "fault.state");
        let mut st = self.inner.state.lock();
        for _ in 0..4 {
            let off = PAGE_HEADER + (st.next_u64() as usize) % (PAGE_SIZE - PAGE_HEADER);
            let bit = 1u8 << (st.next_u64() % 8);
            page.bytes_mut()[off] ^= bit;
        }
    }

    /// How many leading bytes of a torn write survive. Always at least
    /// the page header, so the new checksum lands next to (partially) old
    /// payload — exactly the mismatch the verifier must catch.
    fn torn_cut(&self) -> usize {
        let _rank = invariants::ordered(rank::FAULT, "fault.state");
        let mut st = self.inner.state.lock();
        PAGE_HEADER + (st.next_u64() as usize) % (PAGE_SIZE - PAGE_HEADER)
    }

    /// Parses a comma-separated fault spec (the CLI's `--inject-faults`):
    ///
    /// * `seed=N` — seeds the random stream (default 0);
    /// * `<op>=<p>[:<kind>]` — probabilistic rule, `kind` defaults to
    ///   `transient`;
    /// * `<op>@<n>=<kind>` — the `n`-th op of that kind faults;
    /// * `crash=<point>@<n>` — the `n`-th hit of the named checkpoint
    ///   aborts the process (see [`FaultPlan::crash_point`]);
    ///
    /// with `<op>` one of `read`, `write`, `alloc`, `any` and `<kind>`
    /// one of `transient`, `persistent`, `torn`, `corrupt`. `torn` is
    /// write-only; `corrupt` applies to reads and writes.
    ///
    /// Example: `seed=7,read=0.01,write@3=torn,crash=sort.run_sealed@2`.
    pub fn parse(spec: &str) -> Result<FaultPlan> {
        fn bad(part: &str, why: &str) -> Error {
            Error::InvalidInput(format!("fault spec `{part}`: {why}"))
        }
        fn parse_op(s: &str, part: &str) -> Result<Option<OpKind>> {
            match s {
                "read" => Ok(Some(OpKind::Read)),
                "write" => Ok(Some(OpKind::Write)),
                "alloc" => Ok(Some(OpKind::Alloc)),
                "any" => Ok(None),
                _ => Err(bad(part, "op must be read|write|alloc|any")),
            }
        }
        fn parse_kind(s: &str, part: &str) -> Result<FaultKind> {
            match s {
                "transient" => Ok(FaultKind::Transient),
                "persistent" => Ok(FaultKind::Persistent),
                "torn" => Ok(FaultKind::Torn),
                "corrupt" => Ok(FaultKind::Corrupt),
                _ => Err(bad(part, "kind must be transient|persistent|torn|corrupt")),
            }
        }
        fn check_kind(op: Option<OpKind>, kind: FaultKind, part: &str) -> Result<()> {
            match kind {
                FaultKind::Torn if op != Some(OpKind::Write) => {
                    Err(bad(part, "torn faults apply to writes only"))
                }
                FaultKind::Corrupt
                    if !matches!(op, Some(OpKind::Read) | Some(OpKind::Write)) =>
                {
                    Err(bad(part, "corrupt faults apply to reads and writes"))
                }
                _ => Ok(()),
            }
        }

        let mut seed = 0u64;
        let mut rules: Vec<(Option<OpKind>, Rule)> = Vec::new();
        let mut crashes: Vec<(String, u64)> = Vec::new();
        enum Rule {
            Prob(f64, FaultKind),
            Nth(u64, FaultKind),
        }
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (lhs, rhs) = part
                .split_once('=')
                .ok_or_else(|| bad(part, "expected key=value"))?;
            if lhs == "seed" {
                seed = rhs
                    .parse()
                    .map_err(|_| bad(part, "seed must be an integer"))?;
                continue;
            }
            if lhs == "crash" {
                let (name, n_s) = rhs
                    .split_once('@')
                    .ok_or_else(|| bad(part, "crash needs point@N"))?;
                if name.is_empty() {
                    return Err(bad(part, "crash point name is empty"));
                }
                let n: u64 = n_s
                    .parse()
                    .map_err(|_| bad(part, "crash point@N needs an integer N"))?;
                if n == 0 {
                    return Err(bad(part, "N is 1-based"));
                }
                crashes.push((name.to_string(), n));
                continue;
            }
            if let Some((op_s, n_s)) = lhs.split_once('@') {
                let op = parse_op(op_s, part)?;
                let n: u64 = n_s
                    .parse()
                    .map_err(|_| bad(part, "op@N needs an integer N"))?;
                if n == 0 {
                    return Err(bad(part, "N is 1-based"));
                }
                let kind = parse_kind(rhs, part)?;
                check_kind(op, kind, part)?;
                rules.push((op, Rule::Nth(n, kind)));
            } else {
                let op = parse_op(lhs, part)?;
                let (p_s, kind_s) = match rhs.split_once(':') {
                    Some((p, k)) => (p, k),
                    None => (rhs, "transient"),
                };
                let p: f64 = p_s
                    .parse()
                    .map_err(|_| bad(part, "probability must be a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(bad(part, "probability must be in [0, 1]"));
                }
                let kind = parse_kind(kind_s, part)?;
                check_kind(op, kind, part)?;
                rules.push((op, Rule::Prob(p, kind)));
            }
        }
        let plan = FaultPlan::new(seed);
        for (op, rule) in rules {
            match rule {
                Rule::Prob(p, kind) => plan.probability(op, p, kind),
                Rule::Nth(n, kind) => plan.on_nth(op, n, kind),
            }
        }
        for (name, n) in crashes {
            plan.crash_at(&name, n);
        }
        Ok(plan)
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FaultPlan(armed={})", self.is_armed())
    }
}

/// A [`Disk`] decorator that injects the faults its [`FaultPlan`]
/// schedules. Delivered faults are counted in the shared [`IoStats`]
/// (`faults` in the snapshot).
pub struct FaultyDisk {
    inner: Box<dyn Disk>,
    plan: FaultPlan,
    stats: Arc<IoStats>,
}

impl FaultyDisk {
    /// Wraps `inner`; faults follow `plan`, deliveries count in `stats`.
    pub fn new(inner: Box<dyn Disk>, plan: FaultPlan, stats: Arc<IoStats>) -> FaultyDisk {
        FaultyDisk { inner, plan, stats }
    }

    /// The plan driving this disk.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn fail(&self, kind: FaultKind, op: OpKind, id: Option<PageId>) -> Error {
        self.stats.record_fault();
        match id {
            Some(id) => Error::Storage(format!(
                "injected {} fault during {} of page {id}",
                kind.name(),
                op.name()
            )),
            None => Error::Storage(format!(
                "injected {} fault during {}",
                kind.name(),
                op.name()
            )),
        }
    }
}

impl Disk for FaultyDisk {
    fn read_page(&self, id: PageId, into: &mut Page) -> Result<()> {
        match self.plan.decide(OpKind::Read) {
            None => self.inner.read_page(id, into),
            Some(FaultKind::Corrupt) => {
                self.inner.read_page(id, into)?;
                self.plan.corrupt_payload(into);
                self.stats.record_fault();
                Ok(())
            }
            Some(kind) => Err(self.fail(kind, OpKind::Read, Some(id))),
        }
    }

    fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        match self.plan.decide(OpKind::Write) {
            None => self.inner.write_page(id, page),
            Some(FaultKind::Corrupt) => {
                let mut damaged = page.clone();
                self.plan.corrupt_payload(&mut damaged);
                self.inner.write_page(id, &damaged)?;
                // The medium lied: damage persisted, success reported.
                self.stats.record_fault();
                Ok(())
            }
            Some(FaultKind::Torn) => {
                let mut merged = Page::zeroed();
                if self.inner.read_page(id, &mut merged).is_err() {
                    // No old image to keep: the tear degrades to a full
                    // write that still reports failure.
                    merged = page.clone();
                }
                let cut = self.plan.torn_cut();
                merged.bytes_mut()[..cut].copy_from_slice(&page.bytes()[..cut]);
                self.inner.write_page(id, &merged)?;
                Err(self.fail(FaultKind::Torn, OpKind::Write, Some(id)))
            }
            Some(kind) => Err(self.fail(kind, OpKind::Write, Some(id))),
        }
    }

    fn alloc_page(&self) -> Result<PageId> {
        match self.plan.decide(OpKind::Alloc) {
            None => self.inner.alloc_page(),
            Some(kind) => Err(self.fail(kind, OpKind::Alloc, None)),
        }
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn rig(plan: FaultPlan) -> (FaultyDisk, Arc<IoStats>) {
        let stats = Arc::new(IoStats::default());
        let disk = FaultyDisk::new(
            Box::new(MemDisk::new(Arc::clone(&stats))),
            plan,
            Arc::clone(&stats),
        );
        (disk, stats)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let (disk, stats) = rig(FaultPlan::empty());
        let id = disk.alloc_page().unwrap();
        let mut p = Page::zeroed();
        p.put_u64(PAGE_HEADER, 3);
        disk.write_page(id, &p).unwrap();
        disk.read_page(id, &mut p).unwrap();
        assert_eq!(stats.snapshot().faults, 0);
    }

    #[test]
    fn one_shot_fires_exactly_on_nth_operation_then_disarms() {
        let (disk, stats) = rig(FaultPlan::empty());
        let id = disk.alloc_page().unwrap(); // before arming: free
        disk.plan().on_nth(None, 3, FaultKind::Transient);
        let mut p = Page::zeroed();
        disk.read_page(id, &mut p).unwrap(); // 1
        disk.read_page(id, &mut p).unwrap(); // 2
        let err = disk.read_page(id, &mut p).unwrap_err(); // 3: faults
        assert!(matches!(err, Error::Storage(_)), "{err}");
        disk.read_page(id, &mut p).unwrap(); // disarmed
        assert_eq!(stats.snapshot().faults, 1);
    }

    #[test]
    fn disarming_one_shot_clears_pending_fault() {
        let (disk, _) = rig(FaultPlan::empty());
        let id = disk.alloc_page().unwrap();
        disk.plan().on_nth(None, 1, FaultKind::Transient);
        disk.plan().clear();
        let mut p = Page::zeroed();
        disk.read_page(id, &mut p).unwrap();
    }

    #[test]
    fn nth_trigger_targets_only_its_op_kind() {
        let plan = FaultPlan::empty();
        plan.on_nth(Some(OpKind::Write), 2, FaultKind::Transient);
        let (disk, _) = rig(plan);
        let id = disk.alloc_page().unwrap();
        let mut p = Page::zeroed();
        disk.read_page(id, &mut p).unwrap(); // reads don't count
        disk.write_page(id, &p).unwrap(); // write 1
        assert!(disk.write_page(id, &p).is_err(), "write 2 faults");
        disk.write_page(id, &p).unwrap(); // transient: gone
    }

    #[test]
    fn persistent_fault_kills_the_op_kind() {
        let plan = FaultPlan::empty();
        plan.on_nth(Some(OpKind::Write), 1, FaultKind::Persistent);
        let (disk, _) = rig(plan);
        let id = disk.alloc_page().unwrap();
        let p = Page::zeroed();
        assert!(disk.write_page(id, &p).is_err());
        assert!(disk.write_page(id, &p).is_err(), "still dead");
        let mut q = Page::zeroed();
        disk.read_page(id, &mut q).unwrap(); // reads unaffected
    }

    #[test]
    fn corrupt_write_damages_payload_but_reports_success() {
        let plan = FaultPlan::new(42);
        plan.on_nth(Some(OpKind::Write), 1, FaultKind::Corrupt);
        let (disk, stats) = rig(plan);
        let id = disk.alloc_page().unwrap();
        let mut p = Page::zeroed();
        p.put_u64(PAGE_HEADER, 0xfeed);
        p.seal();
        disk.write_page(id, &p).unwrap();
        assert_eq!(stats.snapshot().faults, 1);
        let mut back = Page::zeroed();
        disk.read_page(id, &mut back).unwrap();
        assert!(back.verify_checksum().is_err(), "checksum must catch it");
    }

    #[test]
    fn corrupt_read_damages_delivered_bytes_not_the_medium() {
        let plan = FaultPlan::new(7);
        let (disk, _) = rig(plan.clone());
        let id = disk.alloc_page().unwrap();
        let mut p = Page::zeroed();
        p.put_u64(PAGE_HEADER, 0xabcd);
        p.seal();
        disk.write_page(id, &p).unwrap();
        plan.on_nth(Some(OpKind::Read), 1, FaultKind::Corrupt);
        let mut bad = Page::zeroed();
        disk.read_page(id, &mut bad).unwrap();
        assert!(bad.verify_checksum().is_err());
        // The next read sees the intact on-medium bytes.
        let mut good = Page::zeroed();
        disk.read_page(id, &mut good).unwrap();
        assert_eq!(good.verify_checksum(), Ok(()));
    }

    #[test]
    fn torn_write_reports_failure_and_leaves_mixed_image() {
        let plan = FaultPlan::new(3);
        let (disk, _) = rig(plan.clone());
        let id = disk.alloc_page().unwrap();
        let mut old = Page::zeroed();
        for off in (PAGE_HEADER..PAGE_SIZE).step_by(8) {
            old.put_u64(off, 0x1111_1111_1111_1111);
        }
        old.seal();
        disk.write_page(id, &old).unwrap();
        plan.on_nth(Some(OpKind::Write), 1, FaultKind::Torn);
        let mut new = Page::zeroed();
        for off in (PAGE_HEADER..PAGE_SIZE).step_by(8) {
            new.put_u64(off, 0x2222_2222_2222_2222);
        }
        new.seal();
        assert!(disk.write_page(id, &new).is_err(), "torn write must fail");
        let mut back = Page::zeroed();
        disk.read_page(id, &mut back).unwrap();
        assert!(
            back.verify_checksum().is_err(),
            "mixed old/new payload must fail the new checksum"
        );
    }

    #[test]
    fn probabilistic_plan_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed);
            plan.probability(Some(OpKind::Read), 0.3, FaultKind::Transient);
            (0..64)
                .map(|_| plan.decide(OpKind::Read).is_some())
                .collect()
        };
        assert_eq!(run(11), run(11), "same seed, same fault sequence");
        assert_ne!(run(11), run(12), "different seeds diverge");
        let hits = run(11).iter().filter(|&&b| b).count();
        assert!(hits > 0 && hits < 64, "p=0.3 over 64 draws: some, not all");
    }

    #[test]
    fn parse_builds_equivalent_plans() {
        let plan = FaultPlan::parse("seed=5, read=0.5, write@2=torn").unwrap();
        assert!(plan.is_armed());
        // The write schedule fires on the 2nd write.
        assert_eq!(plan.decide(OpKind::Write), None);
        assert_eq!(plan.decide(OpKind::Write), Some(FaultKind::Torn));
        // And an empty spec parses to a disarmed plan.
        assert!(!FaultPlan::parse("").unwrap().is_armed());
        assert!(!FaultPlan::parse("seed=9").unwrap().is_armed());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "read",              // no value
            "flush=0.5",         // unknown op
            "read=1.5",          // p out of range
            "read=x",            // not a number
            "read=0.1:gone",     // unknown kind
            "read@0=transient",  // 1-based
            "read@x=transient",  // N not integer
            "read=0.1:torn",     // torn is write-only
            "alloc=0.1:corrupt", // corrupt needs a payload
            "seed=abc",
        ] {
            assert!(
                FaultPlan::parse(bad).is_err(),
                "spec `{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn crash_rules_parse_and_count_down() {
        let plan = FaultPlan::parse("crash=sort.run_sealed@3").unwrap();
        assert!(plan.is_armed());
        assert_eq!(plan.crash_countdown("sort.run_sealed"), Some(3));
        // Hits below the threshold only count down (firing aborts the
        // process, which only the child-process chaos harness exercises).
        plan.crash_point("sort.run_sealed");
        plan.crash_point("other.point");
        assert_eq!(plan.crash_countdown("sort.run_sealed"), Some(2));
        assert_eq!(plan.crash_countdown("other.point"), None);
        plan.clear();
        assert!(!plan.is_armed());
        // Disarmed plans ignore crash points entirely.
        plan.crash_point("sort.run_sealed");
        assert_eq!(plan.crash_countdown("sort.run_sealed"), None);
    }

    #[test]
    fn crash_spec_rejects_malformed_forms() {
        for bad in ["crash=name", "crash=@1", "crash=x@0", "crash=x@y"] {
            assert!(
                FaultPlan::parse(bad).is_err(),
                "spec `{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn any_op_rules_match_everything() {
        let plan = FaultPlan::parse("any@3=transient").unwrap();
        let (disk, _) = rig(plan);
        let id = disk.alloc_page().unwrap(); // 1
        let p = Page::zeroed();
        disk.write_page(id, &p).unwrap(); // 2
        let mut q = Page::zeroed();
        assert!(disk.read_page(id, &mut q).is_err(), "3rd op of any kind");
        disk.read_page(id, &mut q).unwrap();
    }
}
