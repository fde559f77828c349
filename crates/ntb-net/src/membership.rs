//! Whole-PE failure detection and ring membership.
//!
//! The lossy-link layer (`LinkHealthTracker`) recovers from *link* faults:
//! a cable that drops frames still has a live host on each end that
//! retransmits. A crashed or powered-off host is different — every link
//! adjacent to it keeps negotiating electrically, but nothing on the far
//! side ever answers. This module adds the node-level failure story:
//!
//! * **Heartbeats** — each service thread stamps a liveness counter into a
//!   dedicated scratchpad block on every link, on a configurable period.
//! * **Failure detector** — a neighbour whose beat stalls for
//!   `miss_threshold` periods becomes *suspect*; if a confirmation probe
//!   (a doorbell ring, which succeeds against a dead host but fails with
//!   `LinkDown` against a faulted cable) rules out a link fault and the
//!   beat stays frozen past `confirm_grace`, the neighbour is declared
//!   dead.
//! * **Membership** — an epoch-stamped live bitmap ([`MembershipView`]),
//!   gossiped ring-wide through the same scratchpad block plus a dedicated
//!   doorbell ([`crate::doorbells::DB_GOSSIP`]). Views with a strictly
//!   greater epoch win; every local change bumps the epoch.
//! * **Rejoin** — a restarted PE publishes a rejoin request (its beat word
//!   with the top bit set and a config-derived signature in the low bits);
//!   the neighbour validates the signature, purges its duplicate-
//!   suppression state for that PE, and gossips the PE back in at a new
//!   epoch. A *thawed* (frozen-then-resumed) PE needs no purge — its state
//!   survived — so its beats simply resuming is enough to rejoin it.
//!
//! ## Scratchpad layout
//!
//! The heartbeat block lives in scratchpad registers 8..16, above the
//! handshake bank (0..8), split by direction exactly like the handshake:
//! the upstream side transmits in 8..12, the downstream side in 12..16.
//!
//! | offset | content |
//! |--------|---------|
//! | `+0`   | beat word: bit 31 = rejoin request, low 31 bits = counter (or rejoin signature) |
//! | `+1`   | membership epoch (low 32 bits) |
//! | `+2`   | live bitmap (bit *i* = host *i* believed alive) |
//! | `+3`   | crash bitmap (bit *i* = host *i*'s latest rejoin was a crash-restart) |
//!
//! The crash bitmap tells adopters whether a dead→alive transition must
//! purge duplicate-suppression state for that PE (crash lost the PE's own
//! dedup tables, so retransmits would otherwise double-apply) or must keep
//! it (a thaw preserved the tables; purging would double-apply AMOs).

use std::time::{Duration, Instant};

use ntb_sim::{LinkDirection, NtbPort, Result};
use parking_lot::{RwLock, RwLockReadGuard};

/// Heartbeat / failure-detector tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Master switch. Disabled = no beats, no detector, static membership.
    pub enabled: bool,
    /// How often each service thread stamps its beat and samples its
    /// neighbour's.
    pub period: Duration,
    /// Consecutive unchanged samples of a neighbour's beat before it
    /// becomes suspect.
    pub miss_threshold: u32,
    /// After suspicion, how long the beat must stay frozen (with the
    /// confirmation probe ruling out a link fault) before the neighbour
    /// is declared dead. Guards against scheduling hiccups.
    pub confirm_grace: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            enabled: true,
            period: Duration::from_millis(500),
            miss_threshold: 4,
            confirm_grace: Duration::from_millis(1500),
        }
    }
}

impl HeartbeatConfig {
    /// Aggressive timings for tests: detect a dead neighbour in tens of
    /// milliseconds instead of seconds.
    pub fn fast() -> Self {
        HeartbeatConfig {
            enabled: true,
            period: Duration::from_millis(20),
            miss_threshold: 3,
            confirm_grace: Duration::from_millis(60),
        }
    }

    /// Turn the detector off (static membership, as before this module).
    pub fn disabled() -> Self {
        HeartbeatConfig { enabled: false, ..Self::default() }
    }

    /// Earliest a dead neighbour can be *confirmed* dead: the misses that
    /// raise suspicion plus the confirmation grace.
    pub fn detection_floor(&self) -> Duration {
        self.period * self.miss_threshold + self.confirm_grace
    }
}

/// Register offsets inside the heartbeat block.
pub const HB_BEAT: usize = 0;
/// Epoch register offset.
pub const HB_EPOCH: usize = 1;
/// Live-bitmap register offset.
pub const HB_LIVE: usize = 2;
/// Crash-bitmap register offset.
pub const HB_CRASH: usize = 3;
/// Registers per directional heartbeat block.
pub const HB_BLOCK_LEN: usize = 4;

/// Bit 31 of the beat word marks a rejoin request; the low 31 bits then
/// carry [`rejoin_signature`] instead of a counter.
pub const REJOIN_FLAG: u32 = 1 << 31;

/// Transmit base of the heartbeat block for a port facing `dir`. Mirrors
/// the handshake convention (upstream writes the lower half) shifted above
/// the handshake bank.
pub fn hb_tx_base(dir: LinkDirection) -> usize {
    match dir {
        LinkDirection::Upstream => 8,
        LinkDirection::Downstream => 12,
    }
}

/// Receive base: where the *peer* of a port facing `dir` transmits.
pub fn hb_rx_base(dir: LinkDirection) -> usize {
    match dir {
        LinkDirection::Upstream => 12,
        LinkDirection::Downstream => 8,
    }
}

/// Write `view` into the transmit half of `port`'s heartbeat block.
/// Bitmaps first, epoch last — the epoch word doubles as the release
/// publication (readers discard samples whose epoch moved mid-read).
pub fn publish_view(port: &NtbPort, view: MembershipView) -> Result<()> {
    let base = hb_tx_base(port.outgoing().direction());
    port.spad_write(base + HB_LIVE, view.live)?;
    port.spad_write(base + HB_CRASH, view.crash_flags)?;
    port.spad_write(base + HB_EPOCH, view.epoch as u32)
}

/// Write the beat word of `port`'s transmit half: a beat counter, or a
/// rejoin request (`REJOIN_FLAG` plus [`rejoin_signature`]).
pub fn write_beat(port: &NtbPort, word: u32) -> Result<()> {
    port.spad_write(hb_tx_base(port.outgoing().direction()) + HB_BEAT, word)
}

/// Read the neighbour's half of `port`'s heartbeat block: the raw beat
/// word plus its published membership view. `Ok(None)` means the epoch
/// word changed mid-read (a torn sample) — skip and resample on the next
/// tick.
pub fn read_peer_block(port: &NtbPort) -> Result<Option<(u32, MembershipView)>> {
    let base = hb_rx_base(port.outgoing().direction());
    let epoch = port.spad_read(base + HB_EPOCH)?;
    let beat = port.spad_read(base + HB_BEAT)?;
    let live = port.spad_read(base + HB_LIVE)?;
    let crash = port.spad_read(base + HB_CRASH)?;
    if port.spad_read(base + HB_EPOCH)? != epoch {
        return Ok(None);
    }
    Ok(Some((beat, MembershipView { epoch: u64::from(epoch), live, crash_flags: crash })))
}

/// Signature a restarting PE publishes in its rejoin request. Derived
/// from stable configuration both sides know, so a neighbour can tell a
/// genuine rejoin from scratchpad garbage. Low bit forced so the word is
/// never zero (zero means "no beat yet").
pub fn rejoin_signature(me: usize, hosts: usize) -> u32 {
    let h = (me as u32)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add((hosts as u32).wrapping_mul(0x85EB_CA6B));
    (h & 0x7FFF_FFFE) | 1
}

/// An epoch-stamped snapshot of ring membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipView {
    /// Monotone version counter; every membership change bumps it. Views
    /// gossip ring-wide and a strictly greater epoch wins.
    pub epoch: u64,
    /// Bit *i* set = host *i* believed alive.
    pub live: u32,
    /// Bit *i* set = host *i*'s latest rejoin was a crash-restart (its
    /// dedup state was lost; adopters must purge theirs for it).
    pub crash_flags: u32,
}

impl MembershipView {
    /// The boot view: everyone alive, epoch zero.
    pub fn all_live(hosts: usize) -> Self {
        let live = if hosts >= 32 { u32::MAX } else { (1u32 << hosts) - 1 };
        MembershipView { epoch: 0, live, crash_flags: 0 }
    }

    /// Is `pe` alive in this view? The bitmap is one 32-bit scratchpad
    /// word, so only PEs 0..32 are tracked; beyond that the heartbeat
    /// detector is disabled by config validation and untracked PEs are
    /// presumed alive rather than presumed dead.
    pub fn is_live(&self, pe: usize) -> bool {
        pe >= 32 || self.live & (1 << pe) != 0
    }

    /// The live PEs in ascending order (PEs ≥ 32 are untracked and
    /// always reported live).
    pub fn live_pes(&self, hosts: usize) -> Vec<usize> {
        (0..hosts).filter(|&pe| self.is_live(pe)).collect()
    }

    /// Number of live PEs.
    pub fn live_count(&self, hosts: usize) -> usize {
        let tracked = hosts.min(32);
        let mask = if tracked >= 32 { u32::MAX } else { (1u32 << tracked) - 1 };
        (self.live & mask).count_ones() as usize + hosts.saturating_sub(32)
    }
}

/// The shared membership state of one node, behind a reader-writer lock.
///
/// Readers are the hot paths: every put/get/AMO consults the live bitmap,
/// and the transmit path *pins* a read guard across the send so that a
/// concurrent death declaration (a write) linearizes strictly after every
/// send that passed its liveness check — the trace checker's "no frame to
/// a dead PE after its death is known" invariant holds exactly, not just
/// probabilistically.
///
/// Deliberately holds no `Obs` handle and (except for the deliberate
/// transmit pin) takes no other lock while its own is held: every method
/// snapshots, mutates, and releases. Event emission and reactions
/// (failing pending ops, gossiping) belong to the caller, outside the
/// lock.
pub struct Membership {
    me: usize,
    hosts: usize,
    state: RwLock<MembershipView>,
}

impl Membership {
    /// Boot-time membership: everyone alive.
    pub fn new(me: usize, hosts: usize) -> Self {
        Membership { me, hosts, state: RwLock::new(MembershipView::all_live(hosts)) }
    }

    fn read(&self) -> RwLockReadGuard<'_, MembershipView> {
        crate::lockdep_track!(&crate::lockdep::NET_MEMBERSHIP);
        self.state.read()
    }

    fn write(&self) -> parking_lot::RwLockWriteGuard<'_, MembershipView> {
        crate::lockdep_track!(&crate::lockdep::NET_MEMBERSHIP);
        self.state.write()
    }

    /// Pin the current view for the duration of a transmit: while the
    /// returned guard lives, no death (or rejoin) can be declared, so a
    /// send gated on `guard.is_live(dest)` is ordered strictly before any
    /// `PeDead` the declaring thread emits after its write completes.
    ///
    /// Does NOT place its own lockdep tracking guard (it could not outlive
    /// this call); the caller tracks `NET_MEMBERSHIP` at the call site.
    /// Never call another `Membership` method while holding the pin —
    /// parking_lot readers are not reentrant once a writer queues.
    pub fn pin(&self) -> RwLockReadGuard<'_, MembershipView> {
        self.state.read()
    }

    /// Snapshot the current view.
    pub fn view(&self) -> MembershipView {
        *self.read()
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.read().epoch
    }

    /// Is `pe` alive in the current view?
    pub fn is_live(&self, pe: usize) -> bool {
        self.read().is_live(pe)
    }

    /// The live PEs in ascending order.
    pub fn live_pes(&self) -> Vec<usize> {
        self.read().live_pes(self.hosts)
    }

    /// Host count this membership tracks.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Declare `pe` dead. Returns the new view if this was a change, or
    /// `None` if `pe` was already dead (e.g. both neighbours confirmed
    /// independently). Clears the PE's crash flag — whether its *next*
    /// incarnation lost state is decided at rejoin time.
    pub fn mark_dead(&self, pe: usize) -> Option<MembershipView> {
        let mut st = self.write();
        if pe >= 32 || !st.is_live(pe) || pe == self.me {
            return None;
        }
        st.live &= !(1 << pe);
        st.crash_flags &= !(1 << pe);
        st.epoch += 1;
        Some(*st)
    }

    /// Declare `pe` alive again. `crashed` records whether this rejoin is
    /// a crash-restart (dedup state lost — adopters must purge) or a thaw
    /// (state intact — adopters must NOT purge). Returns the new view if
    /// this was a change.
    pub fn mark_alive(&self, pe: usize, crashed: bool) -> Option<MembershipView> {
        let mut st = self.write();
        if pe >= 32 || st.is_live(pe) {
            return None;
        }
        st.live |= 1 << pe;
        if crashed {
            st.crash_flags |= 1 << pe;
        } else {
            st.crash_flags &= !(1 << pe);
        }
        st.epoch += 1;
        Some(*st)
    }

    /// Adopt a gossiped view if its epoch is strictly greater than ours.
    /// Our own live bit is forced on — a node never believes itself dead
    /// (a thawed PE adopting the interim view would otherwise wedge).
    /// Returns `(old, new)` on adoption so the caller can react to the
    /// per-PE transitions (purge dedup state, fail pending ops).
    pub fn adopt(&self, remote: MembershipView) -> Option<(MembershipView, MembershipView)> {
        let mut st = self.write();
        if remote.epoch <= st.epoch {
            return None;
        }
        let old = *st;
        *st = remote;
        st.live |= 1 << self.me;
        Some((old, *st))
    }

    /// Reset to the boot view (everyone alive, epoch zero). Used by a
    /// restarting node before it re-learns the ring's current epoch from
    /// a neighbour.
    pub fn reset(&self) {
        *self.write() = MembershipView::all_live(self.hosts);
    }

    /// Record a validated rejoin *request* from `pe` (the beat word with
    /// [`REJOIN_FLAG`] and a matching [`rejoin_signature`]). Handles both
    /// orderings of crash vs. detection:
    ///
    /// * `pe` already marked dead → alive again, crash flag set (its dedup
    ///   state is gone; adopters must purge theirs).
    /// * `pe` still marked live (it crashed and restarted *faster* than
    ///   the detector confirmed the death) → stays live, crash flag set,
    ///   epoch bumped so the purge still gossips ring-wide.
    ///
    /// Idempotent: returns `None` when `pe` is live with its crash flag
    /// already set (the same request observed on a second tick).
    pub fn mark_rejoined(&self, pe: usize) -> Option<MembershipView> {
        let mut st = self.write();
        if pe >= 32 || (st.is_live(pe) && st.crash_flags & (1 << pe) != 0) {
            return None;
        }
        st.live |= 1 << pe;
        st.crash_flags |= 1 << pe;
        st.epoch += 1;
        Some(*st)
    }
}

/// What one detector sample concluded about a neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeatVerdict {
    /// The beat advanced (or this is the first nonzero sample).
    Alive,
    /// The beat did not advance, but suspicion hasn't been reached.
    Missed(u32),
    /// The miss threshold was just crossed: the neighbour is now suspect.
    /// Carries the miss count for the `PeSuspect` event.
    NewlySuspect(u32),
    /// Already suspect and the grace period has elapsed: time to confirm
    /// (probe the link, then declare death).
    ConfirmDue,
    /// Already suspect, still inside the grace period.
    Suspect,
}

/// Per-endpoint beat tracker: local state of one service thread watching
/// one neighbour. Not shared; needs no lock.
pub struct BeatMonitor {
    last_beat: u32,
    missed: u32,
    suspect_since: Option<Instant>,
}

impl Default for BeatMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl BeatMonitor {
    /// Fresh monitor: no beat seen yet.
    pub fn new() -> Self {
        BeatMonitor { last_beat: 0, missed: 0, suspect_since: None }
    }

    /// Feed one sample of the neighbour's beat word (rejoin flag already
    /// stripped). Timing is wall-clock so a whole-process stall on *our*
    /// side cannot shorten the neighbour's grace window: suspicion is
    /// dated from when it was raised, not reconstructed from miss counts.
    pub fn observe(&mut self, beat: u32, cfg: &HeartbeatConfig) -> BeatVerdict {
        if beat != self.last_beat {
            self.last_beat = beat;
            self.missed = 0;
            self.suspect_since = None;
            return BeatVerdict::Alive;
        }
        if beat == 0 {
            // Neighbour hasn't published a first beat yet; don't count
            // boot-time silence as misses.
            return BeatVerdict::Alive;
        }
        if let Some(since) = self.suspect_since {
            if since.elapsed() >= cfg.confirm_grace {
                return BeatVerdict::ConfirmDue;
            }
            return BeatVerdict::Suspect;
        }
        self.missed += 1;
        if self.missed >= cfg.miss_threshold {
            self.suspect_since = Some(Instant::now());
            BeatVerdict::NewlySuspect(self.missed)
        } else {
            BeatVerdict::Missed(self.missed)
        }
    }

    /// The confirmation probe ruled the stall a *link* fault, not a node
    /// death: restart the grace window so the detector re-evaluates once
    /// the link recovers.
    pub fn defer(&mut self) {
        self.suspect_since = Some(Instant::now());
    }

    /// Death confirmed (or the PE was marked dead via gossip): clear
    /// suspicion so beats resuming later (a thaw, a rejoin) read as a
    /// fresh `Alive`.
    pub fn clear(&mut self) {
        self.missed = 0;
        self.suspect_since = None;
    }

    /// The beat value at the last sample (0 = never seen one).
    pub fn last_beat(&self) -> u32 {
        self.last_beat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_view_has_everyone_live() {
        let v = MembershipView::all_live(5);
        assert_eq!(v.epoch, 0);
        assert_eq!(v.live_pes(5), vec![0, 1, 2, 3, 4]);
        assert_eq!(v.live_count(5), 5);
        assert!(!v.is_live(5));
    }

    #[test]
    fn mark_dead_bumps_epoch_once() {
        let m = Membership::new(0, 5);
        let v = m.mark_dead(2).expect("first death is a change");
        assert_eq!(v.epoch, 1);
        assert!(!v.is_live(2));
        assert!(m.mark_dead(2).is_none(), "second confirmation is not a change");
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.live_pes(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn own_death_is_refused() {
        let m = Membership::new(3, 5);
        assert!(m.mark_dead(3).is_none());
        assert!(m.is_live(3));
    }

    #[test]
    fn crash_rejoin_sets_flag_and_thaw_clears_it() {
        let m = Membership::new(0, 5);
        m.mark_dead(2).unwrap();
        let v = m.mark_alive(2, true).expect("rejoin is a change");
        assert_eq!(v.epoch, 2);
        assert!(v.is_live(2));
        assert_ne!(v.crash_flags & (1 << 2), 0, "crash rejoin flags the PE");
        m.mark_dead(2).unwrap();
        let v = m.mark_alive(2, false).unwrap();
        assert_eq!(v.crash_flags & (1 << 2), 0, "thaw rejoin clears the flag");
        assert!(m.mark_alive(2, true).is_none(), "already live is not a change");
    }

    #[test]
    fn mark_rejoined_covers_both_orderings() {
        let m = Membership::new(0, 5);
        // Fast restart: the PE crashed and came back before any death was
        // confirmed — still flagged + epoch bumped so purges gossip.
        let v = m.mark_rejoined(2).expect("fast restart is a change");
        assert_eq!(v.epoch, 1);
        assert!(v.is_live(2));
        assert_ne!(v.crash_flags & (1 << 2), 0);
        assert!(m.mark_rejoined(2).is_none(), "second observation is idempotent");
        // Normal ordering: death confirmed first.
        m.mark_dead(2).unwrap();
        let v = m.mark_rejoined(2).expect("rejoin after death is a change");
        assert!(v.is_live(2));
        assert_ne!(v.crash_flags & (1 << 2), 0);
    }

    #[test]
    fn adopt_requires_strictly_greater_epoch() {
        let m = Membership::new(0, 5);
        let stale = MembershipView { epoch: 0, live: 0b1, crash_flags: 0 };
        assert!(m.adopt(stale).is_none());
        let newer = MembershipView { epoch: 7, live: 0b1_1011, crash_flags: 0b100 };
        let (old, new) = m.adopt(newer).expect("greater epoch adopted");
        assert_eq!(old.epoch, 0);
        assert_eq!(new.epoch, 7);
        assert!(!new.is_live(2));
        assert!(m.adopt(newer).is_none(), "equal epoch refused after adoption");
    }

    #[test]
    fn adopt_forces_own_live_bit() {
        let m = Membership::new(2, 5);
        // A view that claims we are dead (e.g. gossiped while we were
        // frozen) must not make us believe it.
        let v = MembershipView { epoch: 3, live: 0b1_1011, crash_flags: 0 };
        let (_, new) = m.adopt(v).unwrap();
        assert!(new.is_live(2));
    }

    #[test]
    fn reset_returns_to_boot() {
        let m = Membership::new(0, 4);
        m.mark_dead(1).unwrap();
        m.reset();
        assert_eq!(m.view(), MembershipView::all_live(4));
    }

    #[test]
    fn monitor_suspects_after_threshold_and_confirms_after_grace() {
        let cfg = HeartbeatConfig {
            enabled: true,
            period: Duration::from_millis(1),
            miss_threshold: 3,
            confirm_grace: Duration::from_millis(10),
        };
        let mut mon = BeatMonitor::new();
        assert_eq!(mon.observe(1, &cfg), BeatVerdict::Alive);
        assert_eq!(mon.observe(1, &cfg), BeatVerdict::Missed(1));
        assert_eq!(mon.observe(1, &cfg), BeatVerdict::Missed(2));
        assert_eq!(mon.observe(1, &cfg), BeatVerdict::NewlySuspect(3));
        assert_eq!(mon.observe(1, &cfg), BeatVerdict::Suspect);
        std::thread::sleep(Duration::from_millis(12));
        assert_eq!(mon.observe(1, &cfg), BeatVerdict::ConfirmDue);
        // A fresh beat clears everything.
        assert_eq!(mon.observe(2, &cfg), BeatVerdict::Alive);
        assert_eq!(mon.observe(2, &cfg), BeatVerdict::Missed(1));
    }

    #[test]
    fn monitor_ignores_boot_silence() {
        let cfg = HeartbeatConfig::fast();
        let mut mon = BeatMonitor::new();
        for _ in 0..10 {
            assert_eq!(mon.observe(0, &cfg), BeatVerdict::Alive);
        }
    }

    #[test]
    fn defer_restarts_grace() {
        let cfg = HeartbeatConfig {
            enabled: true,
            period: Duration::from_millis(1),
            miss_threshold: 1,
            confirm_grace: Duration::from_millis(20),
        };
        let mut mon = BeatMonitor::new();
        mon.observe(5, &cfg);
        assert_eq!(mon.observe(5, &cfg), BeatVerdict::NewlySuspect(1));
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(mon.observe(5, &cfg), BeatVerdict::ConfirmDue);
        mon.defer();
        assert_eq!(mon.observe(5, &cfg), BeatVerdict::Suspect, "defer restarts the window");
    }

    #[test]
    fn rejoin_signature_is_stable_nonzero_and_flagless() {
        for me in 0..32 {
            let sig = rejoin_signature(me, 5);
            assert_ne!(sig, 0);
            assert_eq!(sig & REJOIN_FLAG, 0);
            assert_eq!(sig, rejoin_signature(me, 5));
        }
        assert_ne!(rejoin_signature(1, 5), rejoin_signature(2, 5));
    }

    #[test]
    fn hb_bases_are_disjoint_and_mirror() {
        assert_eq!(hb_tx_base(LinkDirection::Upstream), hb_rx_base(LinkDirection::Downstream));
        assert_eq!(hb_tx_base(LinkDirection::Downstream), hb_rx_base(LinkDirection::Upstream));
        assert!(hb_tx_base(LinkDirection::Upstream) >= 8, "above the handshake bank");
        assert!(
            hb_tx_base(LinkDirection::Downstream) + HB_BLOCK_LEN <= ntb_sim::SCRATCHPAD_COUNT,
            "fits the bank"
        );
    }
}
