//! Active sets and teams: collectives over subsets of the world.
//!
//! Classic SHMEM scopes collectives with the *(PE_start, logPE_stride,
//! PE_size)* active-set triple; OpenSHMEM 1.4 wraps the same idea into
//! teams. A [`Team`] here is an active set plus its symmetric
//! synchronization state (the `pSync` work array of the classic API),
//! created collectively over the **whole world** — exactly like classic
//! SHMEM requires `pSync` to be symmetric even on PEs outside the set.
//!
//! Each team collective has one implementation.
//! [`team_allreduce`](ShmemCtx::team_allreduce) runs on collective
//! scratch reserved at team creation, so it needs no barrier at all;
//! [`team_broadcast`](ShmemCtx::team_broadcast) is a root fan-out between
//! two team barriers.
//!
//! Subset barriers cannot ride the physical barrier doorbells (those
//! implement the paper's whole-world ring sweep), so team barriers use the
//! dissemination algorithm over put-flags, which works for any member
//! subset.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::barrier::BarrierPhase;
use crate::collectives::{CollScratch, ReduceOp, ShmemReduce};
use crate::ctx::ShmemCtx;
use crate::error::{Result, ShmemError};
use crate::symmetric::TypedSym;
use crate::sync::CmpOp;
use crate::types::ShmemScalar;

/// The classic SHMEM active-set triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveSet {
    /// First PE of the set.
    pub pe_start: usize,
    /// log₂ of the stride between members.
    pub log_stride: u32,
    /// Number of members.
    pub size: usize,
}

impl ActiveSet {
    /// The set `{pe_start + i * 2^log_stride | i in 0..size}`.
    pub fn new(pe_start: usize, log_stride: u32, size: usize) -> ActiveSet {
        ActiveSet { pe_start, log_stride, size }
    }

    /// Every PE of an `n`-PE world.
    pub fn world(n: usize) -> ActiveSet {
        ActiveSet { pe_start: 0, log_stride: 0, size: n }
    }

    /// Stride in PEs.
    pub fn stride(&self) -> usize {
        1usize << self.log_stride
    }

    /// World rank of member `i`.
    pub fn member(&self, i: usize) -> usize {
        self.pe_start + i * self.stride()
    }

    /// Membership index of world rank `pe`, if a member.
    pub fn rank_of(&self, pe: usize) -> Option<usize> {
        if pe < self.pe_start {
            return None;
        }
        let delta = pe - self.pe_start;
        if !delta.is_multiple_of(self.stride()) {
            return None;
        }
        let i = delta / self.stride();
        (i < self.size).then_some(i)
    }

    /// Largest world rank any member occupies.
    pub fn max_pe(&self) -> usize {
        self.member(self.size.saturating_sub(1))
    }
}

/// A team: an active set plus symmetric synchronization state.
pub struct Team {
    set: ActiveSet,
    /// This PE's rank within the team (`None` for non-members).
    my_rank: Option<usize>,
    /// Dissemination-barrier round flags (symmetric on every world PE).
    flags: TypedSym<u64>,
    /// Monotonic barrier epoch, local.
    epoch: AtomicU64,
    /// Collective scratch of [`ShmemCtx::team_allreduce`], one slot per
    /// member (symmetric on every world PE).
    coll: CollScratch,
}

/// Rounds reserved per team barrier (supports up to 2^8 members; the
/// world is capped at 64 PEs by the frame format).
const TEAM_ROUNDS: usize = 8;

impl Team {
    /// The active set this team spans.
    pub fn active_set(&self) -> ActiveSet {
        self.set
    }

    /// This PE's rank in the team, if a member.
    pub fn my_rank(&self) -> Option<usize> {
        self.my_rank
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.set.size
    }

    /// True if the calling PE belongs to the team.
    pub fn is_member(&self) -> bool {
        self.my_rank.is_some()
    }
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team").field("set", &self.set).field("my_rank", &self.my_rank).finish()
    }
}

impl ShmemCtx {
    /// Create a team over `set`. **Collective over the whole world**
    /// (every PE must call with the same set, members or not), like the
    /// classic requirement that `pSync` be symmetric.
    pub fn team_split(&self, set: ActiveSet) -> Result<Team> {
        if set.size == 0 || set.max_pe() >= self.num_pes() {
            return Err(ShmemError::Runtime("active set exceeds the world"));
        }
        let flags = self.calloc_array::<u64>(TEAM_ROUNDS)?; // collective (barriers)
        let coll = CollScratch::alloc(self, set.size)?;
        Ok(Team { set, my_rank: set.rank_of(self.my_pe()), flags, epoch: AtomicU64::new(0), coll })
    }

    /// A team over the whole world.
    pub fn team_world(&self) -> Result<Team> {
        self.team_split(ActiveSet::world(self.num_pes()))
    }

    /// Release a team's symmetric state. Collective over the world.
    pub fn team_destroy(&self, team: Team) -> Result<()> {
        team.coll.free(self)?;
        self.free_array(team.flags)
    }

    /// Dissemination barrier over the team's members. Non-members return
    /// immediately (they do not synchronize).
    pub fn team_barrier(&self, team: &Team) -> Result<()> {
        let Some(rank) = team.my_rank else {
            return Ok(());
        };
        self.quiet()?;
        let n = team.size();
        if n == 1 {
            return Ok(());
        }
        let epoch = team.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let deadline = Instant::now() + self.cfg.barrier_timeout;
        let mut round = 0usize;
        let mut dist = 1usize;
        while dist < n {
            let peer = team.set.member((rank + dist) % n);
            self.put(&team.flags, round, epoch, peer)?;
            loop {
                let seen = self.heap.version();
                let v = self.read_local(&team.flags, round)?;
                if CmpOp::Ge.eval(&v, &epoch) {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(ShmemError::BarrierTimeout {
                        phase: BarrierPhase::Round(round as u32),
                        waiting_on: team.set.member((rank + n - dist) % n),
                    });
                }
                self.heap.wait_change(
                    seen,
                    Duration::from_millis(20)
                        .min(deadline.saturating_duration_since(Instant::now())),
                );
            }
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// `shmem_team_sync`: the OpenSHMEM 1.5 name for the team barrier
    /// (no implicit quiet semantics beyond what [`Self::team_barrier`]
    /// already provides).
    pub fn team_sync(&self, team: &Team) -> Result<()> {
        self.team_barrier(team)
    }

    /// Broadcast `count` elements of `sym` starting at `index` from the
    /// team member with rank `root_rank` to all members. Collective over
    /// the team (non-members return immediately).
    pub fn team_broadcast<T: ShmemScalar>(
        &self,
        team: &Team,
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
        root_rank: usize,
    ) -> Result<()> {
        if root_rank >= team.size() {
            return Err(ShmemError::Runtime("broadcast root outside the team"));
        }
        let Some(rank) = team.my_rank else {
            return Ok(());
        };
        self.team_barrier(team)?;
        if rank == root_rank {
            let data = self.read_local_slice(sym, index, count)?;
            for i in 0..team.size() {
                if i != root_rank {
                    self.put_slice(sym, index, &data, team.set.member(i))?;
                }
            }
        }
        self.team_barrier(team)
    }

    /// All-reduce `src` element-wise over the team; every member gets the
    /// result (folded in rank order from the identity), non-members get
    /// `None` at once. Collective over the team: it runs the world
    /// allreduce's barrier-free schedule (see
    /// [`allreduce`](ShmemCtx::allreduce)) on the scratch reserved by
    /// [`team_split`](Self::team_split).
    pub fn team_allreduce<T: ShmemReduce>(
        &self,
        team: &Team,
        op: ReduceOp,
        src: &[T],
    ) -> Result<Option<Vec<T>>> {
        if team.my_rank.is_none() {
            return Ok(None);
        }
        let members: Vec<(usize, usize)> =
            (0..team.size()).map(|rank| (rank, team.set.member(rank))).collect();
        self.allreduce_rounds(&team.coll, &members, op, src).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_set_membership() {
        // PEs {1, 3, 5} of a 6-PE world.
        let s = ActiveSet::new(1, 1, 3);
        assert_eq!(s.stride(), 2);
        assert_eq!(s.member(0), 1);
        assert_eq!(s.member(2), 5);
        assert_eq!(s.max_pe(), 5);
        assert_eq!(s.rank_of(1), Some(0));
        assert_eq!(s.rank_of(3), Some(1));
        assert_eq!(s.rank_of(5), Some(2));
        assert_eq!(s.rank_of(0), None);
        assert_eq!(s.rank_of(2), None);
        assert_eq!(s.rank_of(7), None);
    }

    #[test]
    fn world_set() {
        let s = ActiveSet::world(4);
        assert_eq!(s.size, 4);
        for pe in 0..4 {
            assert_eq!(s.rank_of(pe), Some(pe));
        }
    }

    #[test]
    fn contiguous_prefix_set() {
        let s = ActiveSet::new(0, 0, 2);
        assert_eq!(s.rank_of(0), Some(0));
        assert_eq!(s.rank_of(1), Some(1));
        assert_eq!(s.rank_of(2), None);
    }
}
