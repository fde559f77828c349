//! Transfer-info frames: the metadata every slot record carries.
//!
//! The paper's protocol sends, for every payload, "information such as the
//! source host Id (SrcId), destination host Id (DestId), Address offset,
//! Data size, and flag for Send/Receive" through the ScratchPad registers
//! before ringing the doorbell (§III-A). Here the same four words open
//! each record of the link's slot ring ([`crate::slots`]):
//!
//! | word | content |
//! |------|---------|
//! | 0 | header: `kind(4) \| src(6) \| dest(6) \| seq(16)` — zero means *empty slot* |
//! | 1 | bit 31: transfer mode (0=DMA, 1=memcpy); bits 0..24/31: length (AMO frames pack the opcode in bits 24..31) |
//! | 2 | address offset (symmetric-heap or response-buffer relative) |
//! | 3 | auxiliary word (request id for Get/AMO traffic, put id for Put/PutAck) |
//!
//! The header word is written **last** by the sender and zeroed by the
//! receiver as the acknowledgement that frees the slot.

use ntb_sim::TransferMode;

use crate::delivery::AmoOp;

/// Maximum representable host id (6 bits in the header).
pub const MAX_HOSTS: usize = 63;

const MODE_BIT: u32 = 1 << 31;
const AMO_LEN_MASK: u32 = 0x00FF_FFFF;

/// What a frame announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A put payload (or one chunk of one) sits in the window.
    Put,
    /// A payload-free request: send me `len` bytes from your symmetric
    /// heap at `offset`; reply with request id `aux`.
    GetReq,
    /// One chunk of a get response; `offset` is relative to the
    /// requester's destination buffer, `aux` is the request id.
    GetResp,
    /// Delivery acknowledgement for put chunks, routed back to the origin
    /// (consumed by `quiet`/barrier); `len` counts the chunks acked and
    /// `aux` echoes the put id being retired.
    PutAck,
    /// Remote atomic request; 24-byte operand payload
    /// `[operand, compare, width]` in the window, `aux` is the request id.
    AmoReq,
    /// Remote atomic response; 8-byte old-value payload, `aux` is the
    /// request id.
    AmoResp,
}

impl FrameKind {
    fn code(self) -> u32 {
        match self {
            FrameKind::Put => 1,
            FrameKind::GetReq => 2,
            FrameKind::GetResp => 3,
            FrameKind::PutAck => 4,
            FrameKind::AmoReq => 5,
            FrameKind::AmoResp => 6,
        }
    }

    fn from_code(code: u32) -> Option<FrameKind> {
        Some(match code {
            1 => FrameKind::Put,
            2 => FrameKind::GetReq,
            3 => FrameKind::GetResp,
            4 => FrameKind::PutAck,
            5 => FrameKind::AmoReq,
            6 => FrameKind::AmoResp,
            _ => return None,
        })
    }

    /// Whether frames of this kind carry payload bytes in the window.
    pub fn has_payload(self) -> bool {
        !matches!(self, FrameKind::GetReq | FrameKind::PutAck)
    }
}

/// A decoded transfer-info frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind.
    pub kind: FrameKind,
    /// Originating host id.
    pub src: usize,
    /// Final destination host id.
    pub dest: usize,
    /// Low 16 bits of the slot-ring sequence number (set at publish; it
    /// makes every header word distinct from the slot's previous one).
    pub seq: u16,
    /// Payload length in bytes (for GetReq: the requested byte count).
    pub len: u32,
    /// Address offset: symmetric-heap offset for Put/GetReq/Amo,
    /// response-buffer offset for GetResp.
    pub offset: u32,
    /// Auxiliary word: request id for Get/AMO traffic, put id for
    /// Put/PutAck traffic.
    pub aux: u32,
    /// Transfer mode this operation (and its forwards) uses on the wire.
    pub mode: TransferMode,
    /// AMO opcode (only meaningful for AmoReq frames; rides the top bits
    /// of the length register on the wire).
    pub amo_op: Option<AmoOp>,
    /// Absolute operation deadline in microseconds since the network
    /// epoch; 0 means "no deadline". The four frame words are fully
    /// allocated, so this does **not** ride [`Frame::encode`] — the slot
    /// record carries it in its own deadline word; [`Frame::decode`]
    /// therefore yields 0 and the receiving hop re-attaches the wire
    /// value.
    pub deadline_us: u32,
}

impl Frame {
    /// A put (data) frame. `put_id` is the origin-assigned retransmission
    /// id echoed back in the matching [`FrameKind::PutAck`]; the receiver
    /// uses it to suppress duplicate deliveries of retransmitted chunks.
    pub fn put(
        src: usize,
        dest: usize,
        len: u32,
        heap_offset: u32,
        put_id: u32,
        mode: TransferMode,
    ) -> Frame {
        Frame {
            kind: FrameKind::Put,
            src,
            dest,
            seq: 0,
            len,
            offset: heap_offset,
            aux: put_id,
            mode,
            amo_op: None,
            deadline_us: 0,
        }
    }

    /// A get request frame; `mode` is the wire mode the response should
    /// stream back with.
    pub fn get_req(
        src: usize,
        dest: usize,
        len: u32,
        heap_offset: u32,
        req_id: u32,
        mode: TransferMode,
    ) -> Frame {
        Frame {
            kind: FrameKind::GetReq,
            src,
            dest,
            seq: 0,
            len,
            offset: heap_offset,
            aux: req_id,
            mode,
            amo_op: None,
            deadline_us: 0,
        }
    }

    /// A get response chunk frame.
    pub fn get_resp(
        src: usize,
        dest: usize,
        len: u32,
        buf_offset: u32,
        req_id: u32,
        mode: TransferMode,
    ) -> Frame {
        Frame {
            kind: FrameKind::GetResp,
            src,
            dest,
            seq: 0,
            len,
            offset: buf_offset,
            aux: req_id,
            mode,
            amo_op: None,
            deadline_us: 0,
        }
    }

    /// A put-delivery acknowledgement frame covering `chunks` chunks;
    /// `put_id` echoes the acknowledged put frame's retransmission id so
    /// the origin can retire the matching unacked-put record.
    pub fn put_ack(src: usize, dest: usize, chunks: u32, put_id: u32) -> Frame {
        Frame {
            kind: FrameKind::PutAck,
            src,
            dest,
            seq: 0,
            len: chunks,
            offset: 0,
            aux: put_id,
            mode: TransferMode::Dma,
            amo_op: None,
            deadline_us: 0,
        }
    }

    /// An atomic request frame (24-byte operand payload follows).
    pub fn amo_req(src: usize, dest: usize, op: AmoOp, heap_offset: u32, req_id: u32) -> Frame {
        Frame {
            kind: FrameKind::AmoReq,
            src,
            dest,
            seq: 0,
            len: 24,
            offset: heap_offset,
            aux: req_id,
            mode: TransferMode::Dma,
            amo_op: Some(op),
            deadline_us: 0,
        }
    }

    /// An atomic response frame (8-byte old-value payload follows).
    pub fn amo_resp(src: usize, dest: usize, req_id: u32) -> Frame {
        Frame {
            kind: FrameKind::AmoResp,
            src,
            dest,
            seq: 0,
            len: 8,
            offset: 0,
            aux: req_id,
            mode: TransferMode::Dma,
            amo_op: None,
            deadline_us: 0,
        }
    }

    /// Attach an absolute deadline (microseconds since the network
    /// epoch); 0 clears it.
    pub fn with_deadline_us(mut self, deadline_us: u32) -> Frame {
        self.deadline_us = deadline_us;
        self
    }

    /// True when this frame carries a deadline that has already passed at
    /// `now_us` (microseconds since the network epoch).
    pub fn deadline_expired(&self, now_us: u32) -> bool {
        self.deadline_us != 0 && now_us > self.deadline_us
    }

    /// Encode into the four frame words `[header, len, offset, aux]`.
    /// The header is non-zero for every valid frame.
    pub fn encode(&self) -> [u32; 4] {
        debug_assert!(self.src <= MAX_HOSTS && self.dest <= MAX_HOSTS);
        debug_assert!(self.len < MODE_BIT, "length field overflows the mode bit");
        let header = self.kind.code()
            | ((self.src as u32 & 0x3F) << 4)
            | ((self.dest as u32 & 0x3F) << 10)
            | (u32::from(self.seq) << 16);
        let mut len_word = match (self.kind, self.amo_op) {
            (FrameKind::AmoReq, Some(op)) => {
                debug_assert!(self.len <= AMO_LEN_MASK);
                self.len | (op.code() << 24)
            }
            _ => self.len,
        };
        if self.mode == TransferMode::Memcpy {
            len_word |= MODE_BIT;
        }
        [header, len_word, self.offset, self.aux]
    }

    /// Decode from the four frame words; `None` if the header is
    /// empty or malformed.
    pub fn decode(words: [u32; 4]) -> Option<Frame> {
        let header = words[0];
        if header == 0 {
            return None;
        }
        let kind = FrameKind::from_code(header & 0xF)?;
        let src = ((header >> 4) & 0x3F) as usize;
        let dest = ((header >> 10) & 0x3F) as usize;
        let seq = (header >> 16) as u16;
        let mode = if words[1] & MODE_BIT != 0 { TransferMode::Memcpy } else { TransferMode::Dma };
        let len_word = words[1] & !MODE_BIT;
        let (len, amo_op) = if kind == FrameKind::AmoReq {
            let op = AmoOp::from_code((len_word >> 24) & 0x7F)?;
            (len_word & AMO_LEN_MASK, Some(op))
        } else {
            (len_word, None)
        };
        Some(Frame {
            kind,
            src,
            dest,
            seq,
            len,
            offset: words[2],
            aux: words[3],
            mode,
            amo_op,
            deadline_us: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_roundtrip_both_modes() {
        for mode in [TransferMode::Dma, TransferMode::Memcpy] {
            let mut f = Frame::put(3, 7, 65536, 1024, 17, mode);
            f.seq = 42;
            let decoded = Frame::decode(f.encode()).unwrap();
            assert_eq!(decoded, f);
        }
    }

    #[test]
    fn get_req_roundtrip() {
        let f = Frame::get_req(0, 62, 0x7FFF_FFFF, u32::MAX, 0xDEAD_BEEF, TransferMode::Memcpy);
        assert_eq!(Frame::decode(f.encode()).unwrap(), f);
    }

    #[test]
    fn get_resp_roundtrip() {
        let f = Frame::get_resp(5, 1, 4096, 8192, 77, TransferMode::Dma);
        assert_eq!(Frame::decode(f.encode()).unwrap(), f);
    }

    #[test]
    fn put_ack_roundtrip() {
        let f = Frame::put_ack(2, 0, 3, 0xABCD);
        assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        assert!(!f.kind.has_payload());
        assert_eq!(Frame::decode(f.encode()).unwrap().aux, 0xABCD);
    }

    #[test]
    fn amo_roundtrip_all_ops() {
        for op in AmoOp::ALL {
            let f = Frame::amo_req(1, 2, op, 512, 9);
            let d = Frame::decode(f.encode()).unwrap();
            assert_eq!(d, f, "op {op:?}");
            assert_eq!(d.amo_op, Some(op));
        }
    }

    #[test]
    fn amo_resp_roundtrip() {
        let f = Frame::amo_resp(2, 1, 9);
        assert_eq!(Frame::decode(f.encode()).unwrap(), f);
    }

    #[test]
    fn deadline_rides_beside_the_frame_words() {
        // The four-word encode is full: the deadline travels in the slot
        // record's own word instead, so encode/decode must neither carry
        // nor corrupt it.
        let f = Frame::put(1, 2, 64, 0, 7, TransferMode::Dma).with_deadline_us(123_456);
        assert_eq!(f.deadline_us, 123_456);
        let d = Frame::decode(f.encode()).unwrap();
        assert_eq!(d.deadline_us, 0);
        assert_eq!(d.with_deadline_us(f.deadline_us), f);
        assert!(f.deadline_expired(123_457));
        assert!(!f.deadline_expired(123_456));
        assert!(!Frame::put(1, 2, 64, 0, 7, TransferMode::Dma).deadline_expired(u32::MAX));
    }

    #[test]
    fn empty_header_decodes_to_none() {
        assert_eq!(Frame::decode([0, 5, 5, 5]), None);
    }

    #[test]
    fn bad_kind_decodes_to_none() {
        assert_eq!(Frame::decode([0xF, 0, 0, 0]), None);
        assert_eq!(Frame::decode([0x7, 0, 0, 0]), None);
    }

    #[test]
    fn header_nonzero_for_all_kinds() {
        // The slot ring relies on header==0 meaning empty.
        let frames = [
            Frame::put(0, 0, 0, 0, 0, TransferMode::Dma),
            Frame::get_req(0, 0, 0, 0, 0, TransferMode::Dma),
            Frame::get_resp(0, 0, 0, 0, 0, TransferMode::Dma),
            Frame::put_ack(0, 0, 0, 0),
            Frame::amo_req(0, 0, AmoOp::FetchAdd, 0, 0),
            Frame::amo_resp(0, 0, 0),
        ];
        for f in frames {
            assert_ne!(f.encode()[0], 0, "{:?}", f.kind);
        }
    }

    #[test]
    fn payload_flags() {
        assert!(FrameKind::Put.has_payload());
        assert!(FrameKind::GetResp.has_payload());
        assert!(FrameKind::AmoReq.has_payload());
        assert!(FrameKind::AmoResp.has_payload());
        assert!(!FrameKind::GetReq.has_payload());
        assert!(!FrameKind::PutAck.has_payload());
    }

    #[test]
    fn max_host_ids_survive() {
        let f = Frame::put(MAX_HOSTS, MAX_HOSTS, 1, 1, 1, TransferMode::Dma);
        let d = Frame::decode(f.encode()).unwrap();
        assert_eq!(d.src, MAX_HOSTS);
        assert_eq!(d.dest, MAX_HOSTS);
    }

    #[test]
    fn amo_len_field_masked() {
        // AMO length shares its register with the opcode: the masks must
        // keep them separate.
        let f = Frame::amo_req(0, 1, AmoOp::CompareSwap, 0, 0);
        let words = f.encode();
        assert_eq!(words[1] & AMO_LEN_MASK, 24);
        assert_eq!((words[1] >> 24) & 0x7F, AmoOp::CompareSwap.code());
    }

    #[test]
    fn mode_bit_does_not_corrupt_amo_op() {
        let mut f = Frame::amo_req(0, 1, AmoOp::FetchXor, 0, 0);
        f.mode = TransferMode::Memcpy;
        let d = Frame::decode(f.encode()).unwrap();
        assert_eq!(d.amo_op, Some(AmoOp::FetchXor));
        assert_eq!(d.mode, TransferMode::Memcpy);
        assert_eq!(d.len, 24);
    }
}
