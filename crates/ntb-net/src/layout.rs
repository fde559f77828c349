//! Layout of a link's incoming window.
//!
//! Each incoming window is carved into two payload areas, mirroring the
//! paper's buffer structure, then a small control slot and the transmit
//! slot ring:
//!
//! ```text
//! +----------------+--------------------+------+----------------------+
//! | direct buffer  | bypass buffer      | ctrl | slot records | lanes |
//! | (terminating   | (forwarded         | slot |  (32 B each) |       |
//! |  payloads)     |  payloads)         |      |              |       |
//! +----------------+--------------------+------+----------------------+
//! 0            direct_buf     direct_buf+bypass_buf  (+CTRL_LEN)
//! ```
//!
//! Every frame is a record in the slot ring ([`crate::slots`]). A payload
//! that fits a slot's lane travels in the lane; a bigger one is staged in
//! a payload area the record names. The sender chooses the area: if the
//! *next hop is the final destination* the payload goes to the direct
//! buffer; otherwise it goes to the bypass buffer, from which the
//! receiving host's service thread stages and forwards it (paper §III-B3,
//! Fig. 4). Each area holds one staged payload at a time.
//!
//! The control slot holds two words: bytes 0..4 are a scratch word
//! down-link probes write to test the path without touching payload
//! bytes, and bytes 4..8 hold the cumulative credit grant the window's
//! *owner* advertises to the peer for credit-based flow control.

/// Size of the control slot appended after the payload areas.
pub const CTRL_LEN: u64 = 8;

/// Offset within the control slot of the probe scratch word.
pub const CTRL_PROBE_OFF: u64 = 0;

/// Offset within the control slot of the cumulative credit-grant word
/// the receiving side advertises back to the data sender.
pub const CTRL_CREDIT_OFF: u64 = 4;

/// Bytes of one transmit-ring slot record: 8 u32 words — header, len,
/// offset, aux, slot sequence, deadline, CRC and one reserved word (the
/// PEX scratchpad mirror is word-granular, so a record is a power-of-two
/// run of words the sender can publish with plain window writes).
pub const SLOT_RECORD_LEN: u64 = 32;

/// Resolved offsets of one incoming window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowLayout {
    /// Direct buffer offset (always 0).
    pub direct_off: u64,
    /// Direct buffer size.
    pub direct_len: u64,
    /// Bypass buffer offset.
    pub bypass_off: u64,
    /// Bypass buffer size.
    pub bypass_len: u64,
    /// Control slot offset (probe + credit words live here).
    pub ctrl_off: u64,
    /// Transmit-ring area offset.
    pub ring_off: u64,
    /// Number of transmit-ring slots.
    pub ring_slots: u32,
    /// Payload lane size per ring slot.
    pub ring_lane: u64,
}

impl WindowLayout {
    /// Build a layout with the given area sizes and a transmit ring of
    /// `slots` slots, each with a `lane` byte payload lane, appended after
    /// the control slot.
    pub fn new(direct_len: u64, bypass_len: u64, slots: u32, lane: u64) -> Self {
        WindowLayout {
            direct_off: 0,
            direct_len,
            bypass_off: direct_len,
            bypass_len,
            ctrl_off: direct_len + bypass_len,
            ring_off: direct_len + bypass_len + CTRL_LEN,
            ring_slots: slots,
            ring_lane: lane,
        }
    }

    /// Minimum window size that holds both areas, the control slot, and
    /// a ring of `slots` slots with `lane` byte payload lanes.
    pub fn required_size(direct_len: u64, bypass_len: u64, slots: u32, lane: u64) -> u64 {
        direct_len + bypass_len + CTRL_LEN + u64::from(slots) * (SLOT_RECORD_LEN + lane)
    }

    /// Offset of ring slot `idx`'s record (header word first).
    pub fn ring_slot_off(&self, idx: u32) -> u64 {
        debug_assert!(idx < self.ring_slots);
        self.ring_off + u64::from(idx) * SLOT_RECORD_LEN
    }

    /// Offset of ring slot `idx`'s payload lane. Lanes sit after the
    /// whole record array so records stay densely packed for polling.
    pub fn ring_lane_off(&self, idx: u32) -> u64 {
        debug_assert!(idx < self.ring_slots);
        self.ring_off
            + u64::from(self.ring_slots) * SLOT_RECORD_LEN
            + u64::from(idx) * self.ring_lane
    }

    /// Offset of the probe scratch word within the window.
    pub fn probe_off(&self) -> u64 {
        self.ctrl_off + CTRL_PROBE_OFF
    }

    /// Offset of the cumulative credit-grant word within the window.
    pub fn credit_off(&self) -> u64 {
        self.ctrl_off + CTRL_CREDIT_OFF
    }

    /// Offset of the area payloads of the given routing class land in.
    pub fn area_offset(&self, terminating: bool) -> u64 {
        if terminating {
            self.direct_off
        } else {
            self.bypass_off
        }
    }

    /// Size of the area for the given routing class.
    pub fn area_len(&self, terminating: bool) -> u64 {
        if terminating {
            self.direct_len
        } else {
            self.bypass_len
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn areas_dont_overlap() {
        let l = WindowLayout::new(256 << 10, 128 << 10, 0, 0);
        assert_eq!(l.direct_off, 0);
        assert_eq!(l.bypass_off, 256 << 10);
        assert_eq!(l.ctrl_off, 384 << 10);
        assert_eq!(WindowLayout::required_size(256 << 10, 128 << 10, 0, 0), (384 << 10) + CTRL_LEN);
        assert_eq!(l.probe_off(), 384 << 10);
        assert_eq!(l.credit_off(), (384 << 10) + 4);
    }

    #[test]
    fn area_selection() {
        let l = WindowLayout::new(100, 200, 0, 0);
        assert_eq!(l.area_offset(true), 0);
        assert_eq!(l.area_offset(false), 100);
        assert_eq!(l.area_len(true), 100);
        assert_eq!(l.area_len(false), 200);
    }

    #[test]
    fn ring_areas_dont_overlap() {
        let l = WindowLayout::new(1024, 512, 4, 256);
        assert_eq!(l.ring_off, 1024 + 512 + CTRL_LEN);
        assert_eq!(l.ring_slot_off(0), l.ring_off);
        assert_eq!(l.ring_slot_off(3), l.ring_off + 3 * SLOT_RECORD_LEN);
        assert_eq!(l.ring_lane_off(0), l.ring_off + 4 * SLOT_RECORD_LEN);
        assert_eq!(l.ring_lane_off(3), l.ring_off + 4 * SLOT_RECORD_LEN + 3 * 256);
        assert_eq!(
            WindowLayout::required_size(1024, 512, 4, 256),
            1024 + 512 + CTRL_LEN + 4 * (SLOT_RECORD_LEN + 256)
        );
    }
}
