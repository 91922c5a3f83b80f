//! TCP option parsing (the handshake options OS fingerprinting and MSS
//! accounting care about).

use crate::{get_u16, get_u32};

/// A decoded TCP option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOption {
    /// End of option list (0).
    EndOfList,
    /// No-operation padding (1).
    Nop,
    /// Maximum segment size (2).
    Mss(u16),
    /// Window scale shift (3).
    WindowScale(u8),
    /// SACK permitted (4).
    SackPermitted,
    /// Timestamps (8): value, echo reply.
    Timestamps(u32, u32),
    /// Unknown kind with its data length.
    Unknown {
        /// Option kind byte.
        kind: u8,
        /// Data length (excluding kind+len bytes).
        data_len: usize,
    },
}

/// Iterator over the options region of a TCP header (`header[20..data_off]`).
///
/// Malformed regions (bad lengths) end iteration with a final `None`
/// rather than panicking — a capture can contain anything.
#[derive(Debug, Clone)]
pub struct TcpOptionIter<'a> {
    buf: &'a [u8],
    pos: usize,
    done: bool,
}

impl<'a> TcpOptionIter<'a> {
    /// Iterate over an options slice.
    pub fn new(options: &'a [u8]) -> Self {
        Self {
            buf: options,
            pos: 0,
            done: false,
        }
    }
}

impl<'a> Iterator for TcpOptionIter<'a> {
    type Item = TcpOption;

    fn next(&mut self) -> Option<TcpOption> {
        if self.done || self.pos >= self.buf.len() {
            return None;
        }
        let kind = self.buf[self.pos];
        match kind {
            0 => {
                self.done = true;
                Some(TcpOption::EndOfList)
            }
            1 => {
                self.pos += 1;
                Some(TcpOption::Nop)
            }
            _ => {
                if self.pos + 1 >= self.buf.len() {
                    self.done = true;
                    return None;
                }
                let len = usize::from(self.buf[self.pos + 1]);
                if len < 2 || self.pos + len > self.buf.len() {
                    self.done = true;
                    return None;
                }
                let data = &self.buf[self.pos + 2..self.pos + len];
                let opt = match (kind, data.len()) {
                    (2, 2) => TcpOption::Mss(get_u16(data, 0)),
                    (3, 1) => TcpOption::WindowScale(data[0]),
                    (4, 0) => TcpOption::SackPermitted,
                    (8, 8) => TcpOption::Timestamps(get_u32(data, 0), get_u32(data, 4)),
                    _ => TcpOption::Unknown {
                        kind,
                        data_len: data.len(),
                    },
                };
                self.pos += len;
                Some(opt)
            }
        }
    }
}

/// Serialise a SYN's classic option set (MSS, SACK-permitted, window
/// scale, padded with NOPs to a 4-byte boundary). Returns bytes written.
pub fn emit_syn_options(buf: &mut [u8], mss: u16, wscale: u8) -> usize {
    let opts = [
        2u8,
        4,
        (mss >> 8) as u8,
        (mss & 0xff) as u8, // MSS
        4,
        2, // SACK permitted
        3,
        3,
        wscale, // window scale
        1,
        1,
        0, // NOP NOP EOL padding to 12 bytes
    ];
    let n = opts.len().min(buf.len());
    buf[..n].copy_from_slice(&opts[..n]);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_syn_options_roundtrip() {
        let mut buf = [0u8; 12];
        let n = emit_syn_options(&mut buf, 1460, 7);
        assert_eq!(n, 12);
        let opts: Vec<TcpOption> = TcpOptionIter::new(&buf).collect();
        assert_eq!(
            opts,
            vec![
                TcpOption::Mss(1460),
                TcpOption::SackPermitted,
                TcpOption::WindowScale(7),
                TcpOption::Nop,
                TcpOption::Nop,
                TcpOption::EndOfList,
            ]
        );
    }

    #[test]
    fn timestamps_parsed() {
        let buf = [8u8, 10, 0, 0, 0, 100, 0, 0, 0, 7];
        let opts: Vec<TcpOption> = TcpOptionIter::new(&buf).collect();
        assert_eq!(opts, vec![TcpOption::Timestamps(100, 7)]);
    }

    #[test]
    fn unknown_kind_skipped_cleanly() {
        let buf = [254u8, 4, 0xAA, 0xBB, 1, 0];
        let opts: Vec<TcpOption> = TcpOptionIter::new(&buf).collect();
        assert_eq!(
            opts,
            vec![
                TcpOption::Unknown {
                    kind: 254,
                    data_len: 2
                },
                TcpOption::Nop,
                TcpOption::EndOfList,
            ]
        );
    }

    #[test]
    fn malformed_lengths_stop_iteration() {
        // Length 0 (invalid) must not loop forever.
        let opts: Vec<TcpOption> = TcpOptionIter::new(&[2u8, 0, 0, 0]).collect();
        assert!(opts.is_empty());
        // Length overrunning the buffer stops too.
        let opts: Vec<TcpOption> = TcpOptionIter::new(&[2u8, 40, 5]).collect();
        assert!(opts.is_empty());
        // Truncated kind+len pair.
        let opts: Vec<TcpOption> = TcpOptionIter::new(&[2u8]).collect();
        assert!(opts.is_empty());
    }

    #[test]
    fn wrong_size_known_option_is_unknown() {
        // MSS with 3 data bytes is not a valid MSS; preserved as Unknown.
        let buf = [2u8, 5, 1, 2, 3];
        let opts: Vec<TcpOption> = TcpOptionIter::new(&buf).collect();
        assert_eq!(
            opts,
            vec![TcpOption::Unknown {
                kind: 2,
                data_len: 3
            }]
        );
    }

    #[test]
    fn empty_region() {
        assert!(TcpOptionIter::new(&[]).next().is_none());
    }
}
