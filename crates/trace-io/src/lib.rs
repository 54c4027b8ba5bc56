//! Trace ingestion front-end: externally-captured access traces in two
//! documented formats, validated with typed errors and returned as a
//! [`Trace`] that callers decode once into the workspace's
//! [`DecodedTrace`](stem_sim_core::DecodedTrace) pipeline.
//!
//! # Formats
//!
//! **Binary** (`STEMTRC` + version digit, little-endian):
//!
//! ```text
//! magic    7 bytes   "STEMTRC"
//! version  1 byte    ASCII digit ('1')
//! count    u64       number of accesses
//! records  count ×   { addr: u64, inst_gap: u32, kind: u8, pad: [u8;3] }
//! ```
//!
//! The fixed 16-byte record keeps reading trivially seekable; a 50M-access
//! trace is 800MB, in line with what architectural trace formats cost.
//!
//! **Text** (ChampSim-style CSV; one record per line):
//!
//! ```text
//! stemtrace v1
//! # kind,address,inst_gap
//! R,0x7f120440,3
//! W,0x7f120480,1
//! ```
//!
//! The header line is required (it carries the text form's version). The
//! kind is `R` or `W` (case-insensitive), the address is hex (`0x…`) or
//! decimal, and the instruction gap is an optional decimal `u32`
//! (defaulting to 1, so two-column ChampSim-style address traces ingest
//! directly). Blank lines and `#` comments are skipped. Addresses are
//! masked to the simulated 44-bit physical space, like every
//! [`Address`] in the workspace.
//!
//! # Validation contract
//!
//! Parsing never panics on malformed input: every failure surfaces as a
//! typed [`IngestError`] — bad magic, unsupported version, truncation,
//! impossible record counts, bad fields (with the 1-based line number for
//! the text form). The property tests in `tests/ingest_props.rs` drive
//! random, mutated, and truncated bytes through both parsers to pin this.
//!
//! # Examples
//!
//! ```
//! use stem_sim_core::{Access, Address, Trace};
//!
//! let mut t = Trace::new();
//! t.push(Access::read(Address::new(0x40)).with_inst_gap(3));
//!
//! // Binary round trip.
//! let mut buf = Vec::new();
//! stem_trace_io::write_binary(&mut buf, &t).unwrap();
//! assert_eq!(stem_trace_io::read_binary(buf.as_slice()).unwrap(), t);
//!
//! // Text round trip.
//! let mut text = Vec::new();
//! stem_trace_io::write_text(&mut text, &t).unwrap();
//! let text = String::from_utf8(text).unwrap();
//! assert_eq!(stem_trace_io::parse_text(&text).unwrap(), t);
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use stem_sim_core::{Access, AccessKind, Address, SimError, Trace, TraceError};

/// The 7-byte magic shared by every binary container version.
pub const BINARY_MAGIC: &[u8; 7] = b"STEMTRC";

/// The binary container version this crate reads and writes.
pub const BINARY_VERSION: u8 = 1;

/// The required first line of the text form (its version marker).
pub const TEXT_HEADER: &str = "stemtrace v1";

/// Largest record count a binary reader will accept (2^40 records = 16 TiB
/// of payload); anything above this is treated as a corrupted header.
const MAX_RECORD_COUNT: u64 = 1 << 40;

/// The two on-disk trace representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The versioned `STEMTRC` binary container.
    Binary,
    /// The `stemtrace v1` CSV text form.
    Text,
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormat::Binary => write!(f, "binary"),
            TraceFormat::Text => write!(f, "text"),
        }
    }
}

/// A trace file could not be ingested.
///
/// Distinguishes transport failures ([`IngestError::Io`]) from every
/// format-corruption family, so callers can treat "disk broke" and "file
/// is garbage" differently — and so tests can assert the *reason* a bad
/// input was rejected.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed (truncation surfaces as
    /// `UnexpectedEof`).
    Io(io::Error),
    /// The first 8 bytes are not `STEMTRC` + a version digit.
    BadMagic([u8; 8]),
    /// The container (or text header) declares a version this crate does
    /// not speak.
    UnsupportedVersion(u32),
    /// The declared record count is impossible (corrupted header).
    TooLarge(u64),
    /// A binary record carried an access-kind byte other than 0 (read) or
    /// 1 (write).
    BadKind(u8),
    /// The text form is missing its `stemtrace v1` header line.
    MissingHeader,
    /// A text line failed field validation (1-based line number).
    BadField {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "trace read failed: {e}"),
            IngestError::BadMagic(m) => {
                write!(f, "not a STEMTRC trace (bad magic {:02x?})", m)
            }
            IngestError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (this build reads version 1)"
                )
            }
            IngestError::TooLarge(n) => {
                write!(f, "trace declares {n} records, too large to be real")
            }
            IngestError::BadKind(b) => write!(f, "invalid access kind byte {b}"),
            IngestError::MissingHeader => {
                write!(f, "text trace is missing its {TEXT_HEADER:?} header line")
            }
            IngestError::BadField { line, detail } => {
                write!(f, "line {line}: {detail}")
            }
        }
    }
}

impl Error for IngestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<IngestError> for io::Error {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

impl From<IngestError> for SimError {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::Io(inner) => SimError::Trace(TraceError::Io(inner)),
            other => SimError::Trace(TraceError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                other.to_string(),
            ))),
        }
    }
}

impl IngestError {
    /// Whether this error denotes format corruption (as opposed to a
    /// transport failure from the underlying reader).
    pub fn is_corruption(&self) -> bool {
        !matches!(self, IngestError::Io(e) if e.kind() != io::ErrorKind::UnexpectedEof)
    }
}

/// Sniffs which format `bytes` carry: anything starting with the
/// `STEMTRC` magic is binary, everything else is treated as text (whose
/// parser then reports the precise failure).
pub fn detect_format(bytes: &[u8]) -> TraceFormat {
    if bytes.len() >= BINARY_MAGIC.len() && &bytes[..BINARY_MAGIC.len()] == BINARY_MAGIC {
        TraceFormat::Binary
    } else {
        TraceFormat::Text
    }
}

/// Writes `trace` in the version-1 binary container.
///
/// Pass `&mut writer` to keep ownership of your writer.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_binary<W: Write>(mut w: W, trace: &Trace) -> io::Result<()> {
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&[b'0' + BINARY_VERSION])?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for a in trace {
        w.write_all(&a.addr.raw().to_le_bytes())?;
        w.write_all(&a.inst_gap.to_le_bytes())?;
        w.write_all(&[u8::from(a.kind.is_write()), 0, 0, 0])?;
    }
    Ok(())
}

/// Reads a binary-container trace from `r`, validating magic, version,
/// record count, and every record field.
///
/// # Errors
///
/// [`IngestError::BadMagic`] when the 8-byte header is not `STEMTRC` plus
/// a version digit; [`IngestError::UnsupportedVersion`] when the digit is
/// not `1`; [`IngestError::TooLarge`] on impossible counts;
/// [`IngestError::BadKind`] on invalid records; truncation surfaces as
/// [`IngestError::Io`] with kind `UnexpectedEof`.
pub fn read_binary<R: Read>(mut r: R) -> Result<Trace, IngestError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    if &header[..7] != BINARY_MAGIC {
        return Err(IngestError::BadMagic(header));
    }
    let version = header[7];
    if !version.is_ascii_digit() {
        return Err(IngestError::BadMagic(header));
    }
    if version != b'0' + BINARY_VERSION {
        return Err(IngestError::UnsupportedVersion(u32::from(version - b'0')));
    }
    let mut count_bytes = [0u8; 8];
    r.read_exact(&mut count_bytes)?;
    let count = u64::from_le_bytes(count_bytes);
    if usize::try_from(count).is_err() || count > MAX_RECORD_COUNT {
        return Err(IngestError::TooLarge(count));
    }
    // Cap the pre-allocation: a corrupted count must produce a typed error
    // (or EOF below), never an allocator abort.
    let mut trace = Trace::with_capacity(count.min(1 << 20) as usize);
    let mut rec = [0u8; 16];
    for _ in 0..count {
        r.read_exact(&mut rec)?;
        let addr = u64::from_le_bytes(rec[0..8].try_into().expect("8-byte slice"));
        let gap = u32::from_le_bytes(rec[8..12].try_into().expect("4-byte slice"));
        let kind = match rec[12] {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            other => return Err(IngestError::BadKind(other)),
        };
        trace.push(Access {
            addr: Address::new(addr),
            kind,
            inst_gap: gap,
        });
    }
    Ok(trace)
}

/// Writes `trace` in the canonical text form: the header line, then one
/// `R,0x…,gap` record per line (lowercase hex, gap always explicit).
/// [`parse_text`] of the output reproduces `trace` exactly, and re-writing
/// the parse reproduces the bytes — the text form has one canonical
/// serialization per trace.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_text<W: Write>(mut w: W, trace: &Trace) -> io::Result<()> {
    writeln!(w, "{TEXT_HEADER}")?;
    for a in trace {
        let kind = if a.kind.is_write() { 'W' } else { 'R' };
        writeln!(w, "{kind},0x{:x},{}", a.addr.raw(), a.inst_gap)?;
    }
    Ok(())
}

/// Parses the text form.
///
/// # Errors
///
/// [`IngestError::MissingHeader`] when the first non-comment line is not
/// a `stemtrace v<N>` header; [`IngestError::UnsupportedVersion`] when
/// `N` is not 1; [`IngestError::BadField`] (with the 1-based line number)
/// when a record's kind, address, or instruction gap fails validation.
pub fn parse_text(text: &str) -> Result<Trace, IngestError> {
    let mut trace = Trace::new();
    let mut header_seen = false;
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !header_seen {
            let Some(version_part) = line.strip_prefix("stemtrace v") else {
                return Err(IngestError::MissingHeader);
            };
            let version: u32 = version_part
                .trim()
                .parse()
                .map_err(|_| IngestError::MissingHeader)?;
            if version != u32::from(BINARY_VERSION) {
                return Err(IngestError::UnsupportedVersion(version));
            }
            header_seen = true;
            continue;
        }
        trace.push(parse_record(line, line_no)?);
    }
    if !header_seen {
        return Err(IngestError::MissingHeader);
    }
    Ok(trace)
}

/// Parses one `kind,address[,inst_gap]` record line.
fn parse_record(line: &str, line_no: usize) -> Result<Access, IngestError> {
    let bad = |detail: String| IngestError::BadField {
        line: line_no,
        detail,
    };
    let mut fields = line.split(',');
    let kind_field = fields.next().unwrap_or("").trim();
    let kind = match kind_field {
        k if k.eq_ignore_ascii_case("r") => AccessKind::Read,
        k if k.eq_ignore_ascii_case("w") => AccessKind::Write,
        other => return Err(bad(format!("access kind must be R or W, got {other:?}"))),
    };
    let addr_field = fields
        .next()
        .ok_or_else(|| bad("missing address field".to_owned()))?
        .trim();
    let addr =
        parse_address(addr_field).ok_or_else(|| bad(format!("invalid address {addr_field:?}")))?;
    let inst_gap = match fields.next() {
        None => 1,
        Some(gap_field) => {
            let gap_field = gap_field.trim();
            gap_field.parse::<u32>().map_err(|_| {
                bad(format!(
                    "instruction gap must be a decimal u32, got {gap_field:?}"
                ))
            })?
        }
    };
    if let Some(extra) = fields.next() {
        return Err(bad(format!("unexpected extra field {:?}", extra.trim())));
    }
    Ok(Access {
        addr: Address::new(addr),
        kind,
        inst_gap,
    })
}

/// Parses a hex (`0x…`) or decimal address literal.
fn parse_address(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parses `bytes` in whichever format they carry (see [`detect_format`]),
/// returning the detected format alongside the trace.
///
/// # Errors
///
/// Any [`IngestError`] from the matching parser; non-UTF-8 bytes routed
/// to the text parser surface as [`IngestError::BadField`] on the first
/// offending line.
pub fn parse_bytes(bytes: &[u8]) -> Result<(TraceFormat, Trace), IngestError> {
    match detect_format(bytes) {
        TraceFormat::Binary => Ok((TraceFormat::Binary, read_binary(bytes)?)),
        TraceFormat::Text => {
            let text = std::str::from_utf8(bytes).map_err(|e| IngestError::BadField {
                line: bytes[..e.valid_up_to()]
                    .iter()
                    .filter(|&&b| b == b'\n')
                    .count()
                    + 1,
                detail: "text trace is not valid UTF-8".to_owned(),
            })?;
            Ok((TraceFormat::Text, parse_text(text)?))
        }
    }
}

/// Loads a trace file in either format (sniffed from its first bytes).
///
/// # Errors
///
/// [`IngestError::Io`] when the file cannot be read, otherwise any parse
/// error from [`parse_bytes`].
pub fn load_trace(path: &Path) -> Result<(TraceFormat, Trace), IngestError> {
    let bytes = std::fs::read(path)?;
    parse_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(Access::read(Address::new(0x40)).with_inst_gap(3));
        t.push(Access::write(Address::new(0x1234_5678)).with_inst_gap(1));
        t.push(Access {
            addr: Address::new(0xfff_ffff_ffc0),
            kind: AccessKind::Read,
            inst_gap: 0,
        });
        t
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        for t in [sample(), Trace::new()] {
            let mut buf = Vec::new();
            write_binary(&mut buf, &t).unwrap();
            assert_eq!(buf.len(), 16 + 16 * t.len(), "16-byte header and records");
            assert_eq!(read_binary(buf.as_slice()).unwrap(), t);
        }
    }

    #[test]
    fn text_roundtrip_is_exact_and_canonical() {
        let t = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, &t).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        let back = parse_text(&text).unwrap();
        assert_eq!(back, t);
        let mut again = Vec::new();
        write_text(&mut again, &back).unwrap();
        assert_eq!(again, buf, "the text form has one canonical serialization");
    }

    #[test]
    fn text_accepts_comments_decimal_addresses_and_two_column_records() {
        let text = "# captured externally\n\nstemtrace v1\nr, 64, 2\nW,0x80\n";
        let t = parse_text(text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.as_slice()[0].addr.raw(), 64);
        assert_eq!(t.as_slice()[0].inst_gap, 2);
        assert!(t.as_slice()[1].kind.is_write());
        assert_eq!(
            t.as_slice()[1].inst_gap,
            1,
            "two-column records default to gap 1"
        );
    }

    #[test]
    fn text_missing_header_is_typed() {
        for text in ["", "R,0x40,1\n", "# only a comment\n"] {
            assert!(matches!(
                parse_text(text).unwrap_err(),
                IngestError::MissingHeader
            ));
        }
    }

    #[test]
    fn text_future_version_is_typed() {
        let err = parse_text("stemtrace v2\nR,0x40,1\n").unwrap_err();
        assert!(matches!(err, IngestError::UnsupportedVersion(2)));
        assert!(err.is_corruption());
    }

    #[test]
    fn text_bad_fields_name_the_line() {
        let cases = [
            ("stemtrace v1\nX,0x40,1\n", 2, "kind"),
            ("stemtrace v1\nR,zz,1\n", 2, "address"),
            ("stemtrace v1\nR,0x40,-1\n", 2, "gap"),
            ("stemtrace v1\nR,0x40,1,9\n", 2, "extra"),
            ("stemtrace v1\n\n# gap\nR\n", 4, "address"),
        ];
        for (text, line, needle) in cases {
            match parse_text(text).unwrap_err() {
                IngestError::BadField { line: l, detail } => {
                    assert_eq!(l, line, "{text:?}");
                    assert!(detail.contains(needle), "{text:?} → {detail}");
                }
                other => panic!("{text:?} → {other:?}"),
            }
        }
    }

    #[test]
    fn binary_future_version_is_typed_not_bad_magic() {
        let mut buf = b"STEMTRC2".to_vec();
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, IngestError::UnsupportedVersion(2)));
    }

    #[test]
    fn binary_bad_magic_truncation_and_absurd_count_are_typed() {
        let err = read_binary(&b"NOTATRCE\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, IngestError::BadMagic(m) if &m == b"NOTATRCE"));

        let t = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 5);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(&err, IngestError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof));
        assert!(err.is_corruption());

        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        buf[8 + 8 + 12] = 9; // magic + count + the first record's kind byte
        assert!(matches!(
            read_binary(buf.as_slice()),
            Err(IngestError::BadKind(9))
        ));

        let mut buf = b"STEMTRC1".to_vec();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, IngestError::TooLarge(c) if c == u64::MAX));

        // 2^21 declared records with no payload: the capped pre-allocation
        // must not reserve 32 MiB up front, and the read fails cleanly.
        let mut buf = b"STEMTRC1".to_vec();
        buf.extend_from_slice(&(1u64 << 21).to_le_bytes());
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(&err, IngestError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof));
    }

    #[test]
    fn format_detection_sniffs_the_magic() {
        let t = sample();
        let mut bin = Vec::new();
        write_binary(&mut bin, &t).unwrap();
        assert_eq!(detect_format(&bin), TraceFormat::Binary);
        assert_eq!(detect_format(b"stemtrace v1\n"), TraceFormat::Text);
        assert_eq!(detect_format(b""), TraceFormat::Text);
        let (fmt, back) = parse_bytes(&bin).unwrap();
        assert_eq!((fmt, &back), (TraceFormat::Binary, &t));
    }

    #[test]
    fn errors_convert_to_the_workspace_families() {
        let io_err: io::Error = IngestError::UnsupportedVersion(3).into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        let sim: SimError = IngestError::MissingHeader.into();
        assert!(matches!(sim, SimError::Trace(_)));
        assert!(sim.to_string().contains("header"));
    }
}
