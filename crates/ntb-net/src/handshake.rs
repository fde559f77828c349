//! The link bring-up handshake (paper §III-B1, first init step).
//!
//! "The host Id is exchanged with other hosts connected via NTB port;
//! this is done by writing its own Id to ScratchPad register and reading
//! its neighbor Id from the corresponding ScratchPad register. The BAR
//! address region is also exchanged ... to complete the setup of
//! translation register."
//!
//! The handshake runs over a split register bank (initiator side publishes
//! in registers 0–3, responder in 4–7):
//!
//! | register | content |
//! |----------|---------|
//! | `base+0` | magic+state word: `MAGIC | phase` |
//! | `base+1` | host id |
//! | `base+2` | window size low 32 bits |
//! | `base+3` | direct/bypass split (the window layout) |
//!
//! Both sides publish, spin for the peer's publication, validate the
//! geometry (both ends must agree on buffer layout or the transfer
//! protocol would corrupt), and acknowledge. After the handshake the
//! registers are zeroed: frames then ride the slot ring in the window
//! ([`crate::slots`]), and the scratchpads carry only the heartbeat.

use std::time::{Duration, Instant};

use ntb_sim::{LinkDirection, NtbError, NtbPort, Result};

/// Magic pattern marking a handshake word (top 12 bits).
const MAGIC: u32 = 0x57B; // "NTB", squinting

/// Phase values in the state word.
const PHASE_PUBLISH: u32 = 1;
const PHASE_ACK: u32 = 2;

/// What the peer reported during bring-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerInfo {
    /// The peer's host id.
    pub host_id: usize,
    /// The peer's incoming window size (bytes, low 32 bits).
    pub window_size: u32,
    /// The peer's direct-buffer length (the layout split).
    pub direct_len: u32,
}

fn bases(port: &NtbPort) -> (usize, usize) {
    match port.outgoing().direction() {
        LinkDirection::Upstream => (0, 4),
        LinkDirection::Downstream => (4, 0),
    }
}

fn state_word(phase: u32) -> u32 {
    (MAGIC << 20) | phase
}

fn parse_state(word: u32) -> Option<u32> {
    (word >> 20 == MAGIC).then_some(word & 0xFFFFF)
}

/// Run the bring-up handshake on one side of a link. Both sides must call
/// it (concurrently is fine); returns the peer's identity and geometry.
///
/// Fails with [`NtbError::NotConnected`] if the peer stays silent past
/// `timeout`, and with [`NtbError::BadDescriptor`] if the two sides
/// disagree on the window layout.
pub fn exchange_link_info(
    port: &NtbPort,
    my_host_id: usize,
    window_size: u32,
    direct_len: u32,
    timeout: Duration,
) -> Result<PeerInfo> {
    let (tx, rx) = bases(port);
    // Publish body first, state word last (the same release discipline as
    // a slot header).
    port.spad_write(tx + 1, my_host_id as u32)?;
    port.spad_write(tx + 2, window_size)?;
    port.spad_write(tx + 3, direct_len)?;
    port.spad_write(tx, state_word(PHASE_PUBLISH))?;

    // Wait for the peer's publication.
    let deadline = Instant::now() + timeout;
    let peer = loop {
        let word = port.spad_read(rx)?;
        match parse_state(word) {
            Some(phase) if phase == PHASE_PUBLISH || phase == PHASE_ACK => {
                break PeerInfo {
                    host_id: port.spad_read(rx + 1)? as usize,
                    window_size: port.spad_read(rx + 2)?,
                    direct_len: port.spad_read(rx + 3)?,
                };
            }
            _ => {
                if Instant::now() >= deadline {
                    return Err(NtbError::NotConnected);
                }
                std::thread::yield_now();
            }
        }
    };

    // Geometry must agree end to end: the sender-side placement rule and
    // the receiver-side staging rule read the same offsets.
    if peer.direct_len != direct_len {
        return Err(NtbError::BadDescriptor {
            reason: "window layout mismatch across the link (direct buffer split)",
        });
    }

    // Acknowledge, wait for the peer's ack, then clear our registers so
    // a later handshake (a restart) starts from a clean bank.
    port.spad_write(tx, state_word(PHASE_ACK))?;
    let deadline = Instant::now() + timeout;
    loop {
        match parse_state(port.spad_read(rx)?) {
            Some(PHASE_ACK) | None => break, // peer acked (or already cleared)
            _ => {
                if Instant::now() >= deadline {
                    return Err(NtbError::NotConnected);
                }
                std::thread::yield_now();
            }
        }
    }
    for i in 0..4 {
        port.spad_write(tx + i, 0)?;
    }
    // Wait until the peer cleared too (our RX side reads zero), so no
    // stale handshake word can be mistaken for a fresh publication.
    let deadline = Instant::now() + timeout;
    while port.spad_read(rx)? != 0 {
        if Instant::now() >= deadline {
            return Err(NtbError::NotConnected);
        }
        std::thread::yield_now();
    }
    Ok(peer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntb_sim::{connect_ports, HostMemory, PortConfig, TimeModel};
    use std::sync::Arc;

    fn pair() -> (Arc<NtbPort>, Arc<NtbPort>) {
        let ma = HostMemory::new(0, 64 << 20);
        let mb = HostMemory::new(7, 64 << 20);
        connect_ports(
            PortConfig::new(0, 1),
            PortConfig::new(7, 0),
            &ma,
            &mb,
            Arc::new(TimeModel::zero()),
        )
        .unwrap()
    }

    #[test]
    fn both_sides_learn_each_other() {
        let (a, b) = pair();
        let ha = std::thread::spawn(move || {
            exchange_link_info(&a, 0, 4 << 20, 256 << 10, Duration::from_secs(2)).unwrap()
        });
        let hb = std::thread::spawn(move || {
            exchange_link_info(&b, 7, 4 << 20, 256 << 10, Duration::from_secs(2)).unwrap()
        });
        let pa = ha.join().unwrap();
        let pb = hb.join().unwrap();
        assert_eq!(pa.host_id, 7);
        assert_eq!(pb.host_id, 0);
        assert_eq!(pa.window_size, 4 << 20);
        assert_eq!(pa.direct_len, 256 << 10);
    }

    #[test]
    fn registers_clean_after_handshake() {
        let (a, b) = pair();
        let a2 = Arc::clone(&a);
        let h = std::thread::spawn(move || {
            exchange_link_info(&a2, 0, 1 << 20, 1 << 10, Duration::from_secs(2)).unwrap()
        });
        exchange_link_info(&b, 7, 1 << 20, 1 << 10, Duration::from_secs(2)).unwrap();
        h.join().unwrap();
        for i in 0..8 {
            assert_eq!(a.spad_read(i).unwrap(), 0, "register {i} must be clean after bring-up");
        }
    }

    #[test]
    fn silent_peer_times_out() {
        let (a, _b) = pair();
        let err =
            exchange_link_info(&a, 0, 1 << 20, 1 << 10, Duration::from_millis(50)).unwrap_err();
        assert_eq!(err, NtbError::NotConnected);
    }

    #[test]
    fn layout_mismatch_detected() {
        let (a, b) = pair();
        let h = std::thread::spawn(move || {
            exchange_link_info(&a, 0, 1 << 20, 64 << 10, Duration::from_secs(2))
        });
        let rb = exchange_link_info(&b, 7, 1 << 20, 128 << 10, Duration::from_secs(2));
        let ra = h.join().unwrap();
        assert!(
            matches!(ra, Err(NtbError::BadDescriptor { .. }))
                && matches!(rb, Err(NtbError::BadDescriptor { .. })),
            "both sides must reject a split-brain layout: {ra:?} / {rb:?}"
        );
    }

    #[test]
    fn state_word_roundtrip() {
        assert_eq!(parse_state(state_word(PHASE_PUBLISH)), Some(PHASE_PUBLISH));
        assert_eq!(parse_state(state_word(PHASE_ACK)), Some(PHASE_ACK));
        assert_eq!(parse_state(0), None);
        assert_eq!(parse_state(0xDEAD_BEEF), None);
    }
}
