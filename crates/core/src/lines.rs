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
//!
//! A reader that sees the same line many times can take the line before
//! trimming ([`DataLines::next_raw_line`]) and look its raw bytes up in a
//! [`LineMemo`] first, classifying and parsing ([`RawLine::data`]) only on
//! a miss. Equal raw bytes classify and parse alike, so a memo hit stands
//! for exactly what the parse would have produced.

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

impl Span {
    /// The data line this span marks in `raw`.
    #[inline]
    fn line(self, raw: &[u8]) -> DataLine<'_> {
        let line = &raw[self.start..self.end];
        if self.ascii {
            DataLine::Ascii(line)
        } else {
            DataLine::Text(std::str::from_utf8(line).expect("validated by classify"))
        }
    }
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

/// A line as [`DataLines`] found it, before trimming: every byte up to and
/// including its `\n` (the last line of a stream may lack it).
#[derive(Debug, Clone, Copy)]
pub struct RawLine<'a> {
    bytes: &'a [u8],
    ascii: bool,
}

impl<'a> RawLine<'a> {
    /// The line's bytes, untrimmed.
    pub fn bytes(self) -> &'a [u8] {
        self.bytes
    }

    /// The line's data line, or `None` for a blank or comment line. A line
    /// that is not UTF-8 fails as [`DataLines::next_line`] would.
    #[inline]
    pub fn data(self) -> io::Result<Option<DataLine<'a>>> {
        Ok(classify(self.bytes, self.ascii)?.map(|span| span.line(self.bytes)))
    }
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
        Ok(span.line(self.raw(source)))
    }

    /// The next line, blank and comment lines included, untrimmed.
    #[inline]
    pub fn next_raw_line(&mut self) -> io::Result<RawLine<'_>> {
        let (source, ascii) = self.next_raw()?;
        Ok(RawLine {
            bytes: self.raw(source),
            ascii,
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

/// A memo key: a raw line of at most [`LineMemo::KEY_BYTES`] bytes,
/// zero-padded, with its length in the last byte, read as little-endian
/// words. Lines that differ in length or in any byte have different keys.
type Key = [u64; 4];

/// Remembers what each short raw line parsed to, so a reader that sees a
/// line again can skip classifying and parsing it. Its memory and the work
/// it adds per line are bounded by constants:
///
/// * **Inline keys.** A line of up to [`Self::KEY_BYTES`] bytes is its own
///   key, held in the slot; a longer line is never looked up.
/// * **Fixed capacity.** At most [`Self::MAX_SLOTS`] slots, sized from the
///   number of lines the section holds. A lookup hashes the key and
///   compares it in full, never by hash alone, with at most
///   [`Self::PROBES`] consecutive slots; a new line takes the first empty
///   one, or is not recorded when they are all taken.
/// * **A stop rule.** Lookups are tallied in windows of [`Self::WINDOW`];
///   a window with fewer than a quarter hits frees the slots and turns the
///   memo off for good. A stream without repeats therefore pays for one
///   window of lookups, not one per line.
///
/// Only values the parse produced are recorded: a line that parses to
/// nothing (blank, comment) or fails is parsed again when it recurs. The
/// memo is sound for a parse that is a function of the raw bytes alone,
/// as a trace's request lines are while their catalog is fixed.
pub struct LineMemo<V> {
    slots: Box<[(Key, Option<V>)]>,
    /// `64 − log2(slots.len())`: a hash's top bits pick its first slot.
    shift: u32,
    /// Lookups and hits in the current window.
    lookups: u32,
    hits: u32,
}

impl<V: Clone> LineMemo<V> {
    /// The longest raw line recorded, newline included.
    pub const KEY_BYTES: usize = 31;
    /// The most slots a memo holds.
    pub const MAX_SLOTS: usize = 1 << 15;
    /// Slots a lookup examines.
    pub const PROBES: usize = 4;
    /// Lookups per stop-rule window.
    pub const WINDOW: u32 = 1 << 16;

    /// A memo for a section of `lines` lines: twice that many slots, to a
    /// power of two within `PROBES..=MAX_SLOTS`.
    pub fn for_lines(lines: usize) -> Self {
        let len = lines
            .min(Self::MAX_SLOTS / 2)
            .saturating_mul(2)
            .max(Self::PROBES)
            .next_power_of_two();
        Self {
            slots: (0..len).map(|_| (Key::default(), None)).collect(),
            shift: 64 - len.trailing_zeros(),
            lookups: 0,
            hits: 0,
        }
    }

    /// The value recorded for `raw`, or else `parse()`'s, which is recorded
    /// when it is `Some` and a slot is free. `raw` must parse to the same
    /// value every time it recurs.
    #[inline]
    pub fn get_or_insert_with<E>(
        &mut self,
        raw: &[u8],
        parse: impl FnOnce() -> Result<Option<V>, E>,
    ) -> Result<Option<V>, E> {
        if self.slots.is_empty() || raw.len() > Self::KEY_BYTES {
            return parse();
        }
        let key = key_of(raw);
        let mask = self.slots.len() - 1;
        let first = (hash(&key) >> self.shift) as usize;
        let mut free = None;
        for i in (first..first + Self::PROBES).map(|i| i & mask) {
            match &self.slots[i] {
                (k, Some(value)) if *k == key => {
                    let value = value.clone();
                    self.tally(true);
                    return Ok(Some(value));
                }
                (_, Some(_)) => {}
                (_, None) => {
                    free = Some(i);
                    break;
                }
            }
        }
        let value = parse()?;
        if let (Some(i), Some(v)) = (free, &value) {
            self.slots[i] = (key, Some(v.clone()));
        }
        self.tally(false);
        Ok(value)
    }

    /// Counts one lookup and applies the stop rule at the end of a window.
    #[inline]
    fn tally(&mut self, hit: bool) {
        self.hits += u32::from(hit);
        self.lookups += 1;
        if self.lookups == Self::WINDOW {
            if self.hits < Self::WINDOW / 4 {
                self.slots = Box::default();
            }
            self.lookups = 0;
            self.hits = 0;
        }
    }
}

/// The key of a raw line of at most [`LineMemo::KEY_BYTES`] bytes.
#[inline]
fn key_of(raw: &[u8]) -> Key {
    let word = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().expect("8 bytes"));
    let len = raw.len();
    let mut key = Key::default();
    if len >= 8 {
        for (i, k) in key.iter_mut().enumerate().take(len / 8) {
            *k = word(8 * i);
        }
        // The last partial word, read as the line's last eight bytes.
        if !len.is_multiple_of(8) {
            key[len / 8] = word(len - 8) >> (64 - 8 * (len % 8));
        }
    } else {
        key[0] = raw.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
    }
    key[3] |= (len as u64) << 56;
    key
}

/// A key's hash: two independent multiplications, so their latencies
/// overlap. The top bits pick the slot.
#[inline]
fn hash(key: &Key) -> u64 {
    const K0: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    const K1: u64 = 0x9e_37_79_b9_7f_4a_7c_15;
    (key[0] ^ key[2].rotate_left(32)).wrapping_mul(K0)
        ^ (key[1] ^ key[3].rotate_left(32)).wrapping_mul(K1)
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

    /// A memo over `u32` values that counts its parses.
    fn lookup(memo: &mut LineMemo<u32>, raw: &[u8], value: u32, parses: &mut u32) -> Option<u32> {
        memo.get_or_insert_with(raw, || -> Result<_, ()> {
            *parses += 1;
            Ok(Some(value))
        })
        .unwrap()
    }

    #[test]
    fn memo_compares_keys_in_full() {
        // Flipping the same bit of word 0 and of word 2 rotated by 32 keeps
        // the hash: two distinct request lines with one hash.
        let a = b"1000 1001 1002 1003 1004\n";
        let mut b = *a;
        b[0] ^= 1;
        b[20] ^= 1;
        assert_eq!(&b, b"0000 1001 1002 1003 0004\n");
        assert_eq!(hash(&key_of(a)), hash(&key_of(&b)));
        // Equal bytes up to the length, and a trailing NUL: lengths differ.
        let (short, nul) = (&b"12 3"[..], &b"12 3\0"[..]);
        let mut memo = LineMemo::for_lines(4);
        let mut parses = 0;
        for _ in 0..2 {
            for (raw, value) in [(&a[..], 1), (&b[..], 2), (short, 3), (nul, 4)] {
                assert_eq!(lookup(&mut memo, raw, value, &mut parses), Some(value));
            }
        }
        assert_eq!(parses, 4);
    }

    #[test]
    fn memo_keys_every_length_up_to_its_width() {
        let line: Vec<u8> = (0..=LineMemo::<u32>::KEY_BYTES as u8 + 1)
            .map(|i| b'a' + i)
            .collect();
        let keys: Vec<Key> = (0..line.len()).map(|n| key_of(&line[..n])).collect();
        for (n, key) in keys.iter().enumerate().take(LineMemo::<u32>::KEY_BYTES + 1) {
            assert_eq!(usize::from(key[3].to_le_bytes()[7]), n);
            assert_eq!(keys.iter().filter(|k| *k == key).count(), 1, "{n}");
        }
        // Only lines within the width are recorded.
        let mut memo = LineMemo::for_lines(8);
        let mut parses = 0;
        for _ in 0..3 {
            lookup(
                &mut memo,
                &line[..LineMemo::<u32>::KEY_BYTES],
                1,
                &mut parses,
            );
            lookup(
                &mut memo,
                &line[..=LineMemo::<u32>::KEY_BYTES],
                2,
                &mut parses,
            );
        }
        assert_eq!(parses, 1 + 3);
    }

    #[test]
    fn memo_records_only_values_and_holds_what_it_has_room_for() {
        let mut memo = LineMemo::<u32>::for_lines(2);
        assert_eq!(memo.slots.len(), LineMemo::<u32>::PROBES);
        let mut parses = 0;
        let skipped = |parses: &mut u32| -> Result<Option<u32>, ()> {
            *parses += 1;
            Ok(None)
        };
        for _ in 0..2 {
            assert_eq!(
                memo.get_or_insert_with(b"#\n", || skipped(&mut parses)),
                Ok(None)
            );
            assert_eq!(
                memo.get_or_insert_with(b"x\n", || Err::<Option<u32>, ()>(())),
                Err(())
            );
        }
        assert_eq!(parses, 2);
        // Eight lines into four slots: every lookup is right, some parse again.
        for _ in 0..3 {
            for i in 0..8u8 {
                assert_eq!(
                    lookup(&mut memo, &[b'0' + i, b'\n'], u32::from(i), &mut parses),
                    Some(u32::from(i))
                );
            }
        }
        assert!((2 + 8..2 + 24).contains(&parses), "{parses}");
        assert_eq!(
            LineMemo::<u32>::for_lines(usize::MAX).slots.len(),
            LineMemo::<u32>::MAX_SLOTS
        );
    }

    #[test]
    fn memo_stops_after_a_window_without_repeats() {
        let window = LineMemo::<u32>::WINDOW;
        let mut memo = LineMemo::for_lines(usize::MAX);
        let mut parses = 0;
        // A quarter of a window in hits keeps the memo on: the first
        // lookup of 0 misses, the next quarter hit.
        for i in 0..window {
            let n = if i <= window / 4 { 0 } else { i };
            lookup(&mut memo, n.to_string().as_bytes(), n, &mut parses);
        }
        assert!(!memo.slots.is_empty());
        // One hit short of it turns the memo off for good.
        for i in 0..window {
            let n = if i < window / 4 - 1 { 0 } else { window + i };
            lookup(&mut memo, n.to_string().as_bytes(), n, &mut parses);
        }
        assert!(memo.slots.is_empty());
        parses = 0;
        for _ in 0..3 {
            assert_eq!(lookup(&mut memo, b"0", 0, &mut parses), Some(0));
        }
        assert_eq!(parses, 3);
    }

    #[test]
    fn raw_lines_classify_like_data_lines() {
        let text = b"# c\n  \n 1 2 \r\n\xC2\xA03\n4";
        let mut raw = DataLines::new(&text[..], "eof");
        let mut got = Vec::new();
        while let Ok(line) = raw.next_raw_line() {
            let data = line.data().unwrap().map(|l| l.as_str().to_string());
            got.push((line.bytes().to_vec(), data));
        }
        let want: Vec<(&[u8], Option<&str>)> = vec![
            (b"# c\n", None),
            (b"  \n", None),
            (b" 1 2 \r\n", Some("1 2")),
            (b"\xC2\xA03\n", Some("3")),
            (b"4", Some("4")),
        ];
        let want: Vec<_> = want
            .into_iter()
            .map(|(b, d)| (b.to_vec(), d.map(String::from)))
            .collect();
        assert_eq!(got, want);
    }
}
