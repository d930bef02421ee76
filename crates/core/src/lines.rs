//! The data-line scanner of the workspace's text formats: the v1 trace
//! (`fbc_workload::trace`) and the v1 history ([`crate::history`]).
//!
//! Both formats are line-oriented. A line is everything up to and
//! including a `\n` (the last line may lack it); it is trimmed of
//! whitespace at both ends, and a trimmed line that is empty or starts
//! with `#` is skipped. What is left is a *data line*.
//!
//! [`DataLines`] finds lines in its `BufReader`'s own buffer
//! (`fill_buf`/`consume`), copying into one reused carry buffer only a
//! line that crosses a refill. It scans no further than the line asked
//! for, and holds at most one line besides the reader's buffer. One
//! word-at-a-time scan finds a line's end and whether it is ASCII, and
//! the line takes one of two paths:
//!
//! * **ASCII** (every byte below `0x80`): [`DataLine::Ascii`]. Whitespace
//!   is `\t \n \x0B \x0C \r` and space, the ASCII part of Unicode
//!   `White_Space` ([`u8::is_ascii_whitespace`] lacks `\x0B`), and
//!   numbers ([`DataLine::parse_uint`], [`DataLine::uints`]) are read by
//!   a decimal loop that accepts a leading `+` and checks the range.
//! * **Anything else**: the line must be UTF-8 (else `InvalidData`, with
//!   the message `BufRead::read_line` gives) and is handled as a `&str`:
//!   [`str::trim`], [`str::split_whitespace`], [`str::parse`].
//!
//! Both paths accept and reject exactly what `read_line` into a `String`
//! followed by `trim`, `split_whitespace` and `parse` does, errors
//! included. `fbc_workload`'s `Trace::read_from_reference` is that reader,
//! and a differential test pins the trace reader to it.

use std::io::{self, BufRead, BufReader, Read};
use std::str::FromStr;

/// Capacity of the reader's buffer: most lines are found in place, and
/// one in about 64 KiB of input crosses a refill.
const BUF_CAPACITY: usize = 64 * 1024;

/// The error `BufRead::read_line` returns for a line that is not UTF-8.
fn invalid_utf8() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    )
}

/// Whether `b` is whitespace in the sense of [`char::is_whitespace`].
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// The bounds of `bytes` without its leading and trailing [`is_space`]
/// bytes (`(0, 0)` when it is all whitespace).
fn trim_bounds(bytes: &[u8]) -> (usize, usize) {
    match bytes.iter().position(|&b| !is_space(b)) {
        None => (0, 0),
        Some(start) => {
            let end = bytes
                .iter()
                .rposition(|&b| !is_space(b))
                .map_or(start, |i| i + 1);
            (start, end)
        }
    }
}

/// Reads the token at the start of `bytes`, up to its first whitespace
/// byte, as [`str::parse`] reads an unsigned integer: an optional `+`,
/// then one or more digits. Returns the value (`None` for anything else
/// or on overflow) and the token's length, in one pass over its bytes.
#[inline]
fn decimal_token(bytes: &[u8]) -> (Option<u64>, usize) {
    let digits = usize::from(bytes.first() == Some(&b'+'));
    let mut value = 0u64;
    let mut valid = true;
    let mut i = digits;
    while let Some(&b) = bytes.get(i) {
        let d = b.wrapping_sub(b'0');
        if d <= 9 {
            value = value.wrapping_mul(10).wrapping_add(u64::from(d));
        } else if is_space(b) {
            break;
        } else {
            valid = false;
        }
        i += 1;
    }
    let len = i;
    if !valid || len == digits {
        return (None, len);
    }
    // Up to 19 digits cannot overflow a u64; only longer tokens (leading
    // zeros, or out of range) pay for checked arithmetic.
    if len - digits > 19 {
        let checked = bytes[digits..len].iter().try_fold(0u64, |n, &b| {
            n.checked_mul(10)?.checked_add(u64::from(b - b'0'))
        });
        return (checked, len);
    }
    (Some(value), len)
}

/// Position of the first `\n` in `bytes` and whether every byte before
/// it is ASCII, eight bytes at a time.
#[inline]
fn find_newline(bytes: &[u8]) -> Option<(usize, bool)> {
    const LO: u64 = u64::from_le_bytes([0x01; 8]);
    const HI: u64 = u64::from_le_bytes([0x80; 8]);
    const NL: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut high = 0;
    let mut words = bytes.chunks_exact(8);
    for (k, word) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let x = w ^ NL;
        // The lowest set bit marks the first zero byte of `x` exactly.
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            let through = zero ^ (zero - 1);
            let at = 8 * k + zero.trailing_zeros() as usize / 8;
            return Some((at, (high | (w & through)) & HI == 0));
        }
        high |= w;
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == b'\n')?;
    let ascii = high & HI == 0 && tail[..at].is_ascii();
    Some((bytes.len() - tail.len() + at, ascii))
}

/// A trimmed data line, or the rest of one after a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLine<'a> {
    /// A line of ASCII bytes only.
    Ascii(&'a [u8]),
    /// A line with a byte at or above `0x80`, validated as UTF-8.
    Text(&'a str),
}

impl<'a> DataLine<'a> {
    /// The line as a string slice.
    pub fn as_str(self) -> &'a str {
        match self {
            DataLine::Ascii(bytes) => std::str::from_utf8(bytes).expect("ASCII is UTF-8"),
            DataLine::Text(s) => s,
        }
    }

    /// The rest of the line after `prefix`, if it starts with it.
    pub fn strip_prefix(self, prefix: &str) -> Option<Self> {
        match self {
            DataLine::Ascii(bytes) => bytes.strip_prefix(prefix.as_bytes()).map(DataLine::Ascii),
            DataLine::Text(s) => s.strip_prefix(prefix).map(DataLine::Text),
        }
    }

    /// The whole line as an unsigned integer, exactly as
    /// `self.as_str().parse::<T>().ok()` reads it.
    pub fn parse_uint<T: FromStr + TryFrom<u64>>(self) -> Option<T> {
        match self {
            DataLine::Ascii(bytes) => match decimal_token(bytes) {
                (Some(n), len) if len == bytes.len() => T::try_from(n).ok(),
                _ => None,
            },
            DataLine::Text(s) => s.parse().ok(),
        }
    }

    /// The whitespace-separated tokens of the line, each as an unsigned
    /// integer exactly as `token.parse::<T>().ok()` reads it.
    pub fn uints<T: FromStr + TryFrom<u64>>(self) -> impl Iterator<Item = Option<T>> + 'a {
        let mut ascii: &[u8] = &[];
        let mut words = None;
        match self {
            DataLine::Ascii(bytes) => ascii = bytes,
            DataLine::Text(s) => words = Some(s.split_whitespace()),
        }
        std::iter::from_fn(move || match &mut words {
            None => {
                let start = ascii.iter().position(|&b| !is_space(b))?;
                let (value, len) = decimal_token(&ascii[start..]);
                ascii = &ascii[start + len..];
                Some(value.and_then(|n| T::try_from(n).ok()))
            }
            Some(words) => words.next().map(|w| w.parse().ok()),
        })
    }
}

/// Where the line being scanned sits.
#[derive(Clone, Copy)]
enum Source {
    /// The first `len` bytes of the reader's buffer.
    Buffer(usize),
    /// The carry buffer.
    Carry,
}

/// A data line's span within its raw line, and which path it takes.
#[derive(Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
    ascii: bool,
}

/// The span of `raw`'s data line, or `None` for a blank or comment line.
/// `ascii` says whether every byte of `raw` is below `0x80`.
#[inline]
fn classify(raw: &[u8], ascii: bool) -> io::Result<Option<Span>> {
    let (start, end) = if ascii {
        trim_bounds(raw)
    } else {
        let text = std::str::from_utf8(raw).map_err(|_| invalid_utf8())?;
        let start = text.len() - text.trim_start().len();
        (start, start + text[start..].trim_end().len())
    };
    Ok((start < end && raw[start] != b'#').then_some(Span { start, end, ascii }))
}

/// The data lines of a text stream; see the [module docs](self).
pub struct DataLines<R> {
    reader: BufReader<R>,
    /// A line that crossed a refill, assembled here.
    carry: Vec<u8>,
    /// Bytes of the last line still in the reader's buffer, consumed when
    /// the next line is asked for.
    pending: usize,
    /// The message of the `UnexpectedEof` error for running out of lines.
    eof_message: &'static str,
}

impl<R: Read> DataLines<R> {
    /// Scans `r`. Running out of input before a data line is asked for is
    /// an `UnexpectedEof` error with `eof_message`.
    pub fn new(r: R, eof_message: &'static str) -> Self {
        Self {
            reader: BufReader::with_capacity(BUF_CAPACITY, r),
            carry: Vec::new(),
            pending: 0,
            eof_message,
        }
    }

    /// The next data line.
    pub fn next_line(&mut self) -> io::Result<DataLine<'_>> {
        let (source, span) = loop {
            let (source, ascii) = self.next_raw()?;
            if let Some(span) = classify(self.raw(source), ascii)? {
                break (source, span);
            }
        };
        let line = &self.raw(source)[span.start..span.end];
        Ok(if span.ascii {
            DataLine::Ascii(line)
        } else {
            DataLine::Text(std::str::from_utf8(line).expect("validated by classify"))
        })
    }

    fn raw(&self, source: Source) -> &[u8] {
        match source {
            Source::Buffer(len) => &self.reader.buffer()[..len],
            Source::Carry => &self.carry,
        }
    }

    /// Finds the next raw line, blank and comment lines included, and
    /// whether it is all ASCII.
    #[inline]
    fn next_raw(&mut self) -> io::Result<(Source, bool)> {
        self.reader.consume(std::mem::take(&mut self.pending));
        self.carry.clear();
        loop {
            let buf = match self.reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                // A last line without `\n`, or the end of the input.
                return if self.carry.is_empty() {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        self.eof_message,
                    ))
                } else {
                    Ok((Source::Carry, self.carry.is_ascii()))
                };
            }
            match find_newline(buf) {
                Some((i, ascii)) if self.carry.is_empty() => {
                    self.pending = i + 1;
                    return Ok((Source::Buffer(i + 1), ascii));
                }
                Some((i, _)) => {
                    self.carry.extend_from_slice(&buf[..=i]);
                    self.reader.consume(i + 1);
                    return Ok((Source::Carry, self.carry.is_ascii()));
                }
                None => {
                    let len = buf.len();
                    self.carry.extend_from_slice(buf);
                    self.reader.consume(len);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `n` data lines of `text` as strings, or the first error.
    fn data_lines(text: &[u8], n: usize) -> io::Result<Vec<String>> {
        let mut lines = DataLines::new(text, "truncated");
        (0..n)
            .map(|_| lines.next_line().map(|l| l.as_str().to_string()))
            .collect()
    }

    #[test]
    fn skips_blank_and_comment_lines_and_trims() {
        let text = b"# head\n\n \t\n  a b \r\n#x\n\x0Bc\x0C\nd";
        assert_eq!(data_lines(text, 3).unwrap(), ["a b", "c", "d"]);
        let err = data_lines(text, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(err.to_string(), "truncated");
    }

    #[test]
    fn non_ascii_lines_take_the_text_path() {
        let mut lines = DataLines::new("\u{A0}1\u{2003}2\u{85}\n".as_bytes(), "eof");
        let line = lines.next_line().unwrap();
        assert_eq!(line, DataLine::Text("1\u{2003}2"));
        let ids: Vec<Option<u32>> = line.uints().collect();
        assert_eq!(ids, [Some(1), Some(2)]);
    }

    #[test]
    fn invalid_utf8_fails_like_read_line() {
        let err = data_lines(b"1\n\xFF2\n", 2).unwrap_err();
        let mut s = String::new();
        let want = (&b"\xFF2\n"[..]).read_line(&mut s).unwrap_err();
        assert_eq!(
            (err.kind(), err.to_string()),
            (want.kind(), want.to_string())
        );
    }

    #[test]
    fn integers_parse_as_str_parse_does() {
        for s in [
            "0",
            "+7",
            "+",
            "",
            "-1",
            "++1",
            "007",
            "4294967295",
            "4294967296",
            " 1",
            "1 ",
            "18446744073709551615",
            "18446744073709551616",
            "1_0",
            "٣",
        ] {
            let line = if s.is_ascii() {
                DataLine::Ascii(s.as_bytes())
            } else {
                DataLine::Text(s)
            };
            assert_eq!(line.parse_uint::<u32>(), s.parse::<u32>().ok(), "{s:?}");
            assert_eq!(line.parse_uint::<u64>(), s.parse::<u64>().ok(), "{s:?}");
            assert_eq!(line.parse_uint::<usize>(), s.parse::<usize>().ok(), "{s:?}");
        }
    }

    #[test]
    fn ascii_tokens_split_like_split_whitespace() {
        let s = " 1\x0B+2\t\tx3 \x0C 4\r5\n";
        let got: Vec<Option<u32>> = DataLine::Ascii(s.as_bytes()).uints().collect();
        let want: Vec<Option<u32>> = s.split_whitespace().map(|t| t.parse().ok()).collect();
        assert_eq!(got, want);
        assert!((0..=u8::MAX).all(|b| is_space(b) == char::from(b).is_whitespace() || b >= 0x80));
    }

    #[test]
    fn newline_search_stops_at_the_first_newline() {
        assert_eq!(find_newline(b"12\n\xFF\xFF\xFF\xFF\xFF\n"), Some((2, true)));
        assert_eq!(find_newline(b"0123456789\n\xFF"), Some((10, true)));
        assert_eq!(find_newline(b"1\xC3\xA9\n"), Some((3, false)));
        assert_eq!(find_newline(b"01234567\xC3\xA9\n"), Some((10, false)));
        assert_eq!(find_newline(b"\xFF234567"), None);
        assert_eq!(find_newline(b""), None);
    }

    /// A reader that hands out one byte per `read`.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((&b, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            if buf.is_empty() {
                return Ok(0);
            }
            buf[0] = b;
            self.0 = rest;
            Ok(1)
        }
    }

    #[test]
    fn lines_crossing_refills_are_carried() {
        let text = b"# c\n12 34\n\n56\r\n78";
        let mut lines = DataLines::new(Trickle(text), "eof");
        let mut got = Vec::new();
        while let Ok(line) = lines.next_line() {
            got.push(line.as_str().to_string());
        }
        assert_eq!(got, ["12 34", "56", "78"]);
    }
}
