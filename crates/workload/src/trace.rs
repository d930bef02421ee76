//! Trace model and plain-text serialisation.
//!
//! A trace is a catalog (file sizes) plus an ordered sequence of bundle
//! requests. The on-disk format is a dependency-free line-oriented text
//! format so traces can be generated once, shared, and replayed by any
//! tool:
//!
//! ```text
//! # fbc-trace v1
//! files 3
//! 1048576
//! 2097152
//! 4194304
//! requests 2
//! 0 2
//! 1
//! ```

use fbc_core::bundle::{Bundle, BundleInterner};
use fbc_core::catalog::FileCatalog;
use fbc_core::lines::DataLines;
use fbc_core::types::FileId;
use std::io::{self, BufWriter, Read, Write};
#[cfg(any(test, feature = "reference-kernels"))]
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Cap on the capacity reserved from a header count. Header counts are
/// untrusted input; a longer section still loads, growing as it is read.
/// The cap sits above the largest benchmark trace (3 M requests), so those
/// still reserve exactly once.
const MAX_PREALLOC: usize = 1 << 22;

/// A replayable request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// File sizes referenced by the requests.
    pub catalog: FileCatalog,
    /// The job sequence.
    pub requests: Vec<Bundle>,
}

impl Trace {
    /// Creates a trace.
    pub fn new(catalog: FileCatalog, requests: Vec<Bundle>) -> Self {
        Self { catalog, requests }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total bytes requested over the whole trace (with repetition).
    pub fn total_requested_bytes(&self) -> u64 {
        self.requests
            .iter()
            .map(|b| b.total_size(&self.catalog))
            .sum()
    }

    /// Writes the trace in the v1 text format.
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        writeln!(w, "# fbc-trace v1")?;
        writeln!(w, "files {}", self.catalog.len())?;
        for (_, size) in self.catalog.iter() {
            writeln!(w, "{size}")?;
        }
        writeln!(w, "requests {}", self.requests.len())?;
        for r in &self.requests {
            let mut ids = r.iter();
            if let Some(first) = ids.next() {
                write!(w, "{}", first.0)?;
            }
            for f in ids {
                write!(w, " {}", f.0)?;
            }
            writeln!(w)?;
        }
        w.flush()
    }

    /// Reads a trace in the v1 text format.
    ///
    /// Requests with the same file set share one [`Bundle`]: memory grows
    /// with the distinct bundles, not with the trace length. The input is
    /// streamed through [`DataLines`], with no allocation per line; it
    /// accepts and rejects exactly what `read_from_reference` (the
    /// `reference-kernels` twin) does, with the same error kinds and
    /// messages.
    pub fn read_from<R: Read>(r: R) -> io::Result<Self> {
        let mut lines = DataLines::new(r, "truncated trace");
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());

        let n_files: usize = lines
            .next_line()?
            .strip_prefix("files ")
            .ok_or_else(|| bad("expected 'files <n>'"))?
            .parse_uint()
            .ok_or_else(|| bad("bad file count"))?;
        let mut catalog = FileCatalog::with_capacity(n_files.min(MAX_PREALLOC));
        for _ in 0..n_files {
            let size: u64 = lines
                .next_line()?
                .parse_uint()
                .ok_or_else(|| bad("bad file size"))?;
            catalog.add_file(size);
        }
        let n_requests: usize = lines
            .next_line()?
            .strip_prefix("requests ")
            .ok_or_else(|| bad("expected 'requests <n>'"))?
            .parse_uint()
            .ok_or_else(|| bad("bad request count"))?;
        let mut requests = Vec::with_capacity(n_requests.min(MAX_PREALLOC));
        let mut interner = BundleInterner::new();
        let mut ids = Vec::new();
        for _ in 0..n_requests {
            ids.clear();
            for id in lines.next_line()?.uints::<u32>() {
                let id = id.ok_or_else(|| bad("bad file id"))?;
                if id as usize >= catalog.len() {
                    return Err(bad("request references unknown file"));
                }
                ids.push(FileId(id));
            }
            if ids.is_empty() {
                return Err(bad("empty request"));
            }
            requests.push(interner.intern(&mut ids));
        }
        Ok(Self { catalog, requests })
    }

    /// The reference twin of [`Trace::read_from`]: a `read_line` into a
    /// UTF-8 `String` per line, then `trim`, `split_whitespace` and
    /// `str::parse`. Differential tests hold `read_from` to it, errors
    /// included.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn read_from_reference<R: Read>(r: R) -> io::Result<Self> {
        let mut lines = StringLines::new(r);
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());

        let n_files: usize = lines
            .next()?
            .strip_prefix("files ")
            .ok_or_else(|| bad("expected 'files <n>'"))?
            .parse()
            .map_err(|_| bad("bad file count"))?;
        let mut catalog = FileCatalog::with_capacity(n_files.min(MAX_PREALLOC));
        for _ in 0..n_files {
            let size: u64 = lines.next()?.parse().map_err(|_| bad("bad file size"))?;
            catalog.add_file(size);
        }
        let n_requests: usize = lines
            .next()?
            .strip_prefix("requests ")
            .ok_or_else(|| bad("expected 'requests <n>'"))?
            .parse()
            .map_err(|_| bad("bad request count"))?;
        let mut requests = Vec::with_capacity(n_requests.min(MAX_PREALLOC));
        let mut interner = BundleInterner::new();
        let mut ids = Vec::new();
        for _ in 0..n_requests {
            ids.clear();
            for token in lines.next()?.split_whitespace() {
                let id: u32 = token.parse().map_err(|_| bad("bad file id"))?;
                if id as usize >= catalog.len() {
                    return Err(bad("request references unknown file"));
                }
                ids.push(FileId(id));
            }
            if ids.is_empty() {
                return Err(bad("empty request"));
            }
            requests.push(interner.intern(&mut ids));
        }
        Ok(Self { catalog, requests })
    }

    /// Saves the trace to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        self.write_to(std::fs::File::create(path)?)
    }

    /// Loads a trace from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Self::read_from(std::fs::File::open(path)?)
    }
}

/// The data lines of a trace, read through one reused `String`: trimmed,
/// with blank and `#` comment lines skipped. The line source of
/// [`Trace::read_from_reference`].
#[cfg(any(test, feature = "reference-kernels"))]
struct StringLines<R> {
    reader: BufReader<R>,
    buf: String,
}

#[cfg(any(test, feature = "reference-kernels"))]
impl<R: Read> StringLines<R> {
    fn new(r: R) -> Self {
        Self {
            reader: BufReader::new(r),
            buf: String::new(),
        }
    }

    /// The next data line; running out of input is a truncated trace.
    fn next(&mut self) -> io::Result<&str> {
        loop {
            self.buf.clear();
            if self.reader.read_line(&mut self.buf)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated trace",
                ));
            }
            let line = self.buf.trim();
            if !line.is_empty() && !line.starts_with('#') {
                return Ok(self.buf.trim());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            FileCatalog::from_sizes(vec![10, 20, 30]),
            vec![
                Bundle::from_raw([0, 2]),
                Bundle::from_raw([1]),
                Bundle::from_raw([0, 1, 2]),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn equal_file_sets_share_one_interned_bundle() {
        let text = "files 3\n1\n2\n3\nrequests 3\n2 0 2\n0 2\n1\n";
        let t = Trace::read_from(text.as_bytes()).unwrap();
        assert_eq!(t.requests[0], Bundle::from_raw([0, 2]));
        assert_eq!(t.requests[0], t.requests[1]);
        let shared = |a: &Bundle, b: &Bundle| std::ptr::eq(a.files().as_ptr(), b.files().as_ptr());
        assert!(shared(&t.requests[0], &t.requests[1]));
        assert!(!shared(&t.requests[0], &t.requests[2]));
    }

    #[test]
    fn repeated_bundles_roundtrip() {
        let catalog = FileCatalog::from_sizes(vec![10, 20, 30]);
        let pool = [Bundle::from_raw([0, 2]), Bundle::from_raw([1])];
        let requests = [0, 1, 0, 0, 1].iter().map(|&k| pool[k].clone()).collect();
        let t = Trace::new(catalog, requests);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert_eq!(Trace::read_from(&buf[..]).unwrap(), t);
    }

    #[test]
    fn totals() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_requested_bytes(), 40 + 20 + 60);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# fbc-trace v1\n\nfiles 1\n# a file\n5\nrequests 1\n\n0\n";
        let t = Trace::read_from(text.as_bytes()).unwrap();
        assert_eq!(t.catalog.len(), 1);
        assert_eq!(t.requests.len(), 1);
    }

    #[test]
    fn malformed_inputs_rejected() {
        for text in [
            "files x\n",
            "files 1\nnope\nrequests 0\n",
            "files 1\n5\nrequests 1\n3\n",     // unknown file
            "files 1\n5\nrequests 1\n",        // truncated
            "files 1\n5\nrequests 1\n  \n0\n", // blank skipped, then fine... keep valid; see below
        ]
        .iter()
        .take(4)
        {
            assert!(Trace::read_from(text.as_bytes()).is_err(), "{text:?}");
        }
    }

    /// A header count is untrusted input: a huge one must fail as
    /// truncated data, not abort the process on a failed allocation.
    fn assert_truncated(text: &str) {
        let err = Trace::read_from(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{text:?}");
    }

    #[test]
    fn huge_file_count_fails_cleanly() {
        assert_truncated("files 99999999999999\n5\n");
    }

    #[test]
    fn huge_request_count_fails_cleanly() {
        assert_truncated("files 1\n5\nrequests 99999999999999\n0\n");
    }

    /// Both readers' results on `text`, errors as kind and message.
    fn both(text: &[u8]) -> [Result<Trace, (io::ErrorKind, String)>; 2] {
        [Trace::read_from(text), Trace::read_from_reference(text)]
            .map(|r| r.map_err(|e| (e.kind(), e.to_string())))
    }

    #[test]
    fn comment_longer_than_the_read_buffer_is_skipped() {
        let comment = format!("# {}\n", "x".repeat(200_000));
        let text = format!("{comment}files 1\n{comment}5\nrequests 1\n{comment}0\n");
        let [new, reference] = both(text.as_bytes());
        assert_eq!(new, reference);
        assert_eq!(new.unwrap().requests, [Bundle::from_raw([0])]);
    }

    #[test]
    fn request_of_fifty_thousand_ids() {
        let ids: Vec<String> = (0..50_000u32).rev().map(|i| i.to_string()).collect();
        let sizes = "1\n".repeat(50_000);
        let text = format!("files 50000\n{sizes}requests 1\n{}\n", ids.join(" "));
        let [new, reference] = both(text.as_bytes());
        assert_eq!(new, reference);
        assert_eq!(new.unwrap().requests[0], Bundle::from_raw(0..50_000));
    }

    #[test]
    fn last_line_without_newline() {
        let text = b"files 2\n5\n6\nrequests 2\n0\n1 0";
        let [new, reference] = both(text);
        assert_eq!(new, reference);
        assert_eq!(new.unwrap().requests[1], Bundle::from_raw([0, 1]));
        let [new, reference] = both(b"files 2\n5\n6\nrequests 2\n0\n1 x");
        assert_eq!(new, reference);
        assert_eq!(new.unwrap_err().1, "bad file id");
    }

    #[test]
    fn write_to_matches_the_joined_rendering() {
        let t = Trace::new(
            FileCatalog::from_sizes(vec![10, 20, 30]),
            vec![
                Bundle::from_raw([2, 0, 1]),
                Bundle::from_raw([]),
                Bundle::from_raw([1]),
            ],
        );
        let mut written = Vec::new();
        t.write_to(&mut written).unwrap();
        let mut want = String::from("# fbc-trace v1\nfiles 3\n10\n20\n30\nrequests 3\n");
        for r in &t.requests {
            let ids: Vec<String> = r.iter().map(|f| f.0.to_string()).collect();
            want.push_str(&ids.join(" "));
            want.push('\n');
        }
        assert_eq!(String::from_utf8(written).unwrap(), want);
    }

    #[test]
    fn file_roundtrip() {
        let t = sample();
        let dir = std::env::temp_dir().join("fbc_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.trace");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }
}
