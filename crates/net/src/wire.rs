//! The wire codec: the five-message QCR protocol as length-checked,
//! checksummed little-endian frames.
//!
//! Frame layout (mirroring the `sim::contact_bin` idiom: fixed magic,
//! explicit little-endian fields, typed decode errors with truncation
//! blame):
//!
//! ```text
//! [ MAGIC (1) | kind (1) | payload (kind-specific) | FNV-1a32 (4) ]
//! ```
//!
//! The trailing checksum covers everything before it, so a corrupted
//! frame — any single bit flip, anywhere — decodes to a typed
//! [`WireError`] instead of a silently wrong message. Vectors are
//! encoded as a `u32` count followed by the elements; counts are bounded
//! by [`MAX_LIST`] so a corrupt length can never drive an allocation.

use std::fmt;

use impatience_core::hash::fnv1a32;

/// Frame marker; bump on any layout change.
pub const MAGIC: u8 = 0xA9;

/// Upper bound on encoded list lengths (items, wants, grants, pools).
pub const MAX_LIST: u32 = 1 << 20;

/// Message kind tags (wire byte 1).
const KIND_ADVERT: u8 = 1;
const KIND_REQUEST: u8 = 2;
const KIND_FULFILL: u8 = 3;
const KIND_HANDOFF: u8 = 4;
const KIND_ACK: u8 = 5;

/// The typed message set of the distributed QCR protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Contact-window hello: what the sender caches and which mandates
    /// it holds. Drives query counting, fulfillment, mandate execution
    /// and routing at the receiver.
    CacheAdvert {
        /// Contact-window id the advert belongs to.
        window: u64,
        /// Items in the sender's cache (sorted).
        items: Vec<u32>,
        /// The sender's mandate pool as (item, count) pairs (sorted).
        mandates: Vec<(u32, u64)>,
    },
    /// Ask the peer to serve the listed items this window.
    Request {
        /// Contact-window id.
        window: u64,
        /// Items the sender wants (sorted, deduplicated).
        wants: Vec<u32>,
    },
    /// Serve content: every listed item was in the sender's cache when
    /// the request was processed.
    Fulfill {
        /// Contact-window id.
        window: u64,
        /// Items granted.
        grants: Vec<u32>,
    },
    /// Two-phase mandate transfer (phase 1). With `execute` false this
    /// hands custody of `count` mandates to the receiver (§5.3 routing);
    /// with `execute` true it offers one mandated copy of `item` for the
    /// receiver to store. Idempotent under redelivery: the receiver
    /// dedups on `xfer`.
    MandateHandoff {
        /// Globally unique transfer id.
        xfer: u64,
        /// The mandated item.
        item: u32,
        /// Mandates in escrow for this transfer.
        count: u64,
        /// Execute (store a copy) instead of transferring custody.
        execute: bool,
    },
    /// Two-phase mandate transfer (phase 2): how many of the transfer's
    /// mandates the receiver consumed. Re-sent verbatim on duplicate
    /// handoffs.
    MandateAck {
        /// The transfer being acknowledged.
        xfer: u64,
        /// Mandates consumed at the receiver (`count` for applied
        /// custody transfers, 0 or 1 for executions).
        consumed: u64,
    },
}

impl Msg {
    /// Stable kind name for logs and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::CacheAdvert { .. } => "cache_advert",
            Msg::Request { .. } => "request",
            Msg::Fulfill { .. } => "fulfill",
            Msg::MandateHandoff { .. } => "mandate_handoff",
            Msg::MandateAck { .. } => "mandate_ack",
        }
    }

    /// Encode the message as one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        buf.push(MAGIC);
        match self {
            Msg::CacheAdvert {
                window,
                items,
                mandates,
            } => {
                buf.push(KIND_ADVERT);
                buf.extend_from_slice(&window.to_le_bytes());
                put_u32_list(&mut buf, items);
                buf.extend_from_slice(&(mandates.len() as u32).to_le_bytes());
                for &(item, count) in mandates {
                    buf.extend_from_slice(&item.to_le_bytes());
                    buf.extend_from_slice(&count.to_le_bytes());
                }
            }
            Msg::Request { window, wants } => {
                buf.push(KIND_REQUEST);
                buf.extend_from_slice(&window.to_le_bytes());
                put_u32_list(&mut buf, wants);
            }
            Msg::Fulfill { window, grants } => {
                buf.push(KIND_FULFILL);
                buf.extend_from_slice(&window.to_le_bytes());
                put_u32_list(&mut buf, grants);
            }
            Msg::MandateHandoff {
                xfer,
                item,
                count,
                execute,
            } => {
                buf.push(KIND_HANDOFF);
                buf.extend_from_slice(&xfer.to_le_bytes());
                buf.extend_from_slice(&item.to_le_bytes());
                buf.extend_from_slice(&count.to_le_bytes());
                buf.push(u8::from(*execute));
            }
            Msg::MandateAck { xfer, consumed } => {
                buf.push(KIND_ACK);
                buf.extend_from_slice(&xfer.to_le_bytes());
                buf.extend_from_slice(&consumed.to_le_bytes());
            }
        }
        let sum = fnv1a32(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decode one frame. Truncated input is blamed as
    /// [`WireError::Truncated`] with the byte counts; any corruption the
    /// structure checks miss is caught by the trailing checksum.
    pub fn decode(buf: &[u8]) -> Result<Msg, WireError> {
        if buf.len() < 6 {
            return Err(WireError::Truncated {
                need: 6,
                have: buf.len(),
            });
        }
        if buf[0] != MAGIC {
            return Err(WireError::BadMagic { found: buf[0] });
        }
        let kind = buf[1];
        let mut cur = Cursor {
            buf,
            pos: 2,
            // The last 4 bytes are the checksum, not payload.
            end: buf.len() - 4,
        };
        let msg = match kind {
            KIND_ADVERT => {
                let window = cur.u64()?;
                let items = cur.u32_list()?;
                let n = cur.list_len()?;
                let mut mandates = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let item = cur.u32()?;
                    let count = cur.u64()?;
                    mandates.push((item, count));
                }
                Msg::CacheAdvert {
                    window,
                    items,
                    mandates,
                }
            }
            KIND_REQUEST => Msg::Request {
                window: cur.u64()?,
                wants: cur.u32_list()?,
            },
            KIND_FULFILL => Msg::Fulfill {
                window: cur.u64()?,
                grants: cur.u32_list()?,
            },
            KIND_HANDOFF => Msg::MandateHandoff {
                xfer: cur.u64()?,
                item: cur.u32()?,
                count: cur.u64()?,
                execute: cur.u8()? != 0,
            },
            KIND_ACK => Msg::MandateAck {
                xfer: cur.u64()?,
                consumed: cur.u64()?,
            },
            other => return Err(WireError::UnknownKind { kind: other }),
        };
        if cur.pos != cur.end {
            return Err(WireError::TrailingBytes {
                extra: cur.end - cur.pos,
            });
        }
        let expected = fnv1a32(&buf[..cur.end]);
        let found = u32::from_le_bytes(buf[cur.end..].try_into().expect("4 bytes"));
        if expected != found {
            return Err(WireError::ChecksumMismatch { expected, found });
        }
        Ok(msg)
    }
}

fn put_u32_list(buf: &mut Vec<u8>, xs: &[u32]) {
    buf.extend_from_slice(&(xs.len() as u32).to_le_bytes());
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    end: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.pos + n > self.end {
            return Err(WireError::Truncated {
                need: self.pos + n + 4,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn list_len(&mut self) -> Result<u32, WireError> {
        let n = self.u32()?;
        if n > MAX_LIST {
            return Err(WireError::Oversized {
                len: n,
                max: MAX_LIST,
            });
        }
        Ok(n)
    }

    fn u32_list(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.list_len()?;
        let mut xs = Vec::with_capacity(n as usize);
        for _ in 0..n {
            xs.push(self.u32()?);
        }
        Ok(xs)
    }
}

/// Why a frame failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the frame needs at least.
        need: usize,
        /// Bytes present.
        have: usize,
    },
    /// The first byte is not [`MAGIC`].
    BadMagic {
        /// The byte found instead.
        found: u8,
    },
    /// The kind tag names no known message.
    UnknownKind {
        /// The offending tag.
        kind: u8,
    },
    /// A list length exceeds [`MAX_LIST`].
    Oversized {
        /// The declared length.
        len: u32,
        /// The allowed maximum.
        max: u32,
    },
    /// Payload bytes remain after the message parsed.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
    /// The trailing FNV-1a checksum does not match the frame.
    ChecksumMismatch {
        /// Checksum computed over the received bytes.
        expected: u32,
        /// Checksum carried by the frame.
        found: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated frame: need >= {need} bytes, have {have}")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad magic byte {found:#04x} (expected {MAGIC:#04x})")
            }
            WireError::UnknownKind { kind } => write!(f, "unknown message kind {kind}"),
            WireError::Oversized { len, max } => {
                write!(f, "list length {len} exceeds the {max} cap")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the message")
            }
            WireError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: frame carries {found:#010x}, bytes hash to {expected:#010x}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::CacheAdvert {
                window: 7,
                items: vec![0, 3, 9],
                mandates: vec![(3, 2), (11, 20)],
            },
            Msg::CacheAdvert {
                window: 0,
                items: vec![],
                mandates: vec![],
            },
            Msg::Request {
                window: u64::MAX,
                wants: vec![1],
            },
            Msg::Fulfill {
                window: 42,
                grants: vec![5, 6],
            },
            Msg::MandateHandoff {
                xfer: 99,
                item: 4,
                count: 3,
                execute: false,
            },
            Msg::MandateHandoff {
                xfer: 100,
                item: 4,
                count: 1,
                execute: true,
            },
            Msg::MandateAck {
                xfer: 99,
                consumed: 3,
            },
        ]
    }

    #[test]
    fn round_trips() {
        for msg in samples() {
            let bytes = msg.encode();
            assert_eq!(Msg::decode(&bytes).unwrap(), msg, "{}", msg.kind());
        }
    }

    #[test]
    fn every_truncation_errors() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Msg::decode(&bytes[..cut]).is_err(),
                    "{} truncated to {cut} of {} decoded",
                    msg.kind(),
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_errors() {
        for msg in samples() {
            let bytes = msg.encode();
            for byte in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        Msg::decode(&bad).is_err(),
                        "{}: flip of byte {byte} bit {bit} decoded",
                        msg.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_list_is_rejected_without_allocating() {
        let mut bytes = vec![MAGIC, KIND_REQUEST];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let sum = fnv1a32(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Msg::decode(&bytes),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Msg::MandateAck {
            xfer: 1,
            consumed: 0,
        }
        .encode();
        let pos = bytes.len() - 4;
        bytes.insert(pos, 0);
        assert!(matches!(
            Msg::decode(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }
}
