//! The one framing every binary file of the workspace shares: `emtbl`
//! tables, `emckpt` run checkpoints, `emstream` session checkpoints and
//! `emsvc` service checkpoints.
//!
//! ```text
//! magic    16 B  format name and version, NUL-padded ("emckpt v3\0...")
//! segment  tag:u32 | 0:u32 | len:u64 | payload[len] | zero pad to 8 | checksum:u64
//! ...
//! END      tag 0, len 0 — and nothing after it
//! ```
//!
//! Integers are little-endian. The magic, a segment header, a padded
//! payload and a checksum are all multiples of 8 bytes, so every payload
//! starts 8-aligned in the file: a reader over an 8-aligned buffer can
//! cast a payload's fixed-width sections in place (`emtbl`'s zero-copy
//! columns). The checksum covers the segment's header and its padded
//! payload, folded eight bytes at a time. A torn write, a flipped byte, a
//! length that runs past the file, a missing END or bytes after it is a
//! typed [`SegmentError`] at open, never a panic and never a half-read
//! file. What each payload holds is the format's business; [`Fields`]
//! reads it front to back under the same rules.

use std::fmt;
use std::io::{self, Write};

/// Width of the magic that opens every file.
pub const MAGIC_LEN: usize = 16;

/// Tag of the empty segment that closes every file.
const END: u32 = 0;

/// `tag | 0 | len`.
const HEADER: usize = 16;

/// A framing or payload error, at a byte offset of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentError {
    /// Where in the file the reader stopped.
    pub offset: usize,
    /// What it found there.
    pub message: String,
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

fn err(offset: usize, message: impl Into<String>) -> SegmentError {
    SegmentError {
        offset,
        message: message.into(),
    }
}

/// `name` NUL-padded to [`MAGIC_LEN`].
fn magic(name: &str) -> [u8; MAGIC_LEN] {
    let mut m = [0u8; MAGIC_LEN];
    m[..name.len()].copy_from_slice(name.as_bytes());
    m
}

/// What a file that does not open with the expected magic calls itself:
/// its leading printable bytes, cut after the version number so that an
/// old binary header (`emtbl v1` then a row count) reads as its name.
fn found_magic(data: &[u8]) -> String {
    let head: String = data
        .iter()
        .take(MAGIC_LEN)
        .take_while(|b| (0x20..0x7f).contains(*b))
        .map(|&b| char::from(b))
        .collect();
    let end = head.find(" v").map_or(head.len(), |v| {
        v + 2 + head[v + 2..].bytes().take_while(u8::is_ascii_digit).count()
    });
    match end {
        0 => "no magic".to_owned(),
        _ => format!("`{}`", &head[..end]),
    }
}

/// The segment checksum over `header` and `payload` zero-padded to 8:
/// one rotate, xor and odd multiply per word, each a bijection of the
/// state, so inputs that differ in any one word always differ in sum.
fn checksum(header: &[u8], payload: &[u8]) -> u64 {
    let mut last = [0u8; 8];
    let whole = payload.len() / 8 * 8;
    last[..payload.len() - whole].copy_from_slice(&payload[whole..]);
    let words = header.chunks_exact(8).chain(payload[..whole].chunks_exact(8));
    let tail = (whole < payload.len()).then_some(&last[..]);
    let h = words.chain(tail).fold(0x9e37_79b9_7f4a_7c15u64, |h, w| {
        (h.rotate_left(23) ^ u64::from_le_bytes(w.try_into().expect("8 bytes")))
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
    });
    h ^ (h >> 29)
}

/// Writes one file: the magic, then [`SegmentWriter::segment`]s in order,
/// then END on [`SegmentWriter::finish`]. Holds no payload itself, so a
/// caller streaming a large file buffers one segment at a time.
#[derive(Debug)]
pub struct SegmentWriter<W: Write> {
    out: W,
}

impl<W: Write> SegmentWriter<W> {
    /// Start a file of format `name` (at most [`MAGIC_LEN`] bytes).
    pub fn new(mut out: W, name: &str) -> io::Result<Self> {
        out.write_all(&magic(name))?;
        Ok(SegmentWriter { out })
    }

    /// Append one segment.
    pub fn segment(&mut self, tag: u32, payload: &[u8]) -> io::Result<()> {
        let mut header = [0u8; HEADER];
        header[..4].copy_from_slice(&tag.to_le_bytes());
        header[8..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        let pad = payload.len().next_multiple_of(8) - payload.len();
        self.out.write_all(&header)?;
        self.out.write_all(payload)?;
        self.out.write_all(&[0u8; 8][..pad])?;
        self.out.write_all(&checksum(&header, payload).to_le_bytes())
    }

    /// Close the file with END and hand back the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.segment(END, &[])?;
        Ok(self.out)
    }
}

/// A whole file of format `name` in memory: `segments` in order, then END.
pub fn encode(name: &str, segments: &[(u32, &[u8])]) -> Vec<u8> {
    let write = || -> io::Result<Vec<u8>> {
        let mut w = SegmentWriter::new(Vec::new(), name)?;
        for &(tag, payload) in segments {
            w.segment(tag, payload)?;
        }
        w.finish()
    };
    write().expect("writing to a Vec cannot fail")
}

/// One verified segment: where its payload starts in the file, and the
/// payload (pad excluded).
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    /// File offset of the payload's first byte (a multiple of 8).
    pub offset: usize,
    /// The payload bytes.
    pub payload: &'a [u8],
}

impl<'a> Segment<'a> {
    /// A front-to-back reader over the payload.
    pub fn fields(&self) -> Fields<'a> {
        Fields {
            bytes: self.payload,
            pos: 0,
            offset: self.offset,
        }
    }
}

/// Reads one file's segments in order. Formats have a fixed segment
/// sequence, so the interface is "the next segment must be this tag"
/// ([`SegmentReader::expect`]) and "the file ends here"
/// ([`SegmentReader::finish`]).
#[derive(Debug)]
pub struct SegmentReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SegmentReader<'a> {
    /// Check the magic of format `name`. Any other magic — an older
    /// version of the same format included — is an error naming it.
    pub fn open(data: &'a [u8], name: &str) -> Result<Self, SegmentError> {
        if data.len() < MAGIC_LEN || data[..MAGIC_LEN] != magic(name) {
            let found = found_magic(data);
            return Err(err(0, format!("bad magic: expected `{name}`, found {found}")));
        }
        Ok(SegmentReader {
            data,
            pos: MAGIC_LEN,
        })
    }

    /// Read and verify the next segment, which must carry `tag`.
    pub fn expect(&mut self, tag: u32) -> Result<Segment<'a>, SegmentError> {
        let at = self.pos;
        let rest = &self.data[at..];
        if rest.len() < HEADER {
            let what = match rest.len() {
                0 if tag == END => "missing END segment".to_owned(),
                0 => format!("segment {tag} is missing"),
                n => format!("segment header cut at {n} of {HEADER} bytes"),
            };
            return Err(err(at, format!("truncated file: {what}")));
        }
        let word = |i: usize| u64::from_le_bytes(rest[i..i + 8].try_into().expect("8 bytes"));
        let (found, reserved, len) = (word(0) as u32, word(0) >> 32, word(8));
        let have = rest.len() - HEADER;
        // The padded payload plus the checksum must fit what is left.
        let Some(padded) = usize::try_from(len)
            .ok()
            .and_then(|n| n.checked_next_multiple_of(8))
            .filter(|&p| p.checked_add(8).is_some_and(|need| need <= have))
        else {
            return Err(err(
                at,
                format!(
                    "segment {found} runs past the end of the file: a {len}-byte payload, \
                     its pad and its checksum do not fit the {have} bytes left (torn write?)"
                ),
            ));
        };
        let (body, len) = (&rest[HEADER..HEADER + padded], len as usize);
        let (stored, computed) = (word(HEADER + padded), checksum(&rest[..HEADER], body));
        if stored != computed {
            return Err(err(
                at,
                format!(
                    "segment {found} checksum mismatch: stored {stored:016x}, computed \
                     {computed:016x} (torn write or tampered file)"
                ),
            ));
        }
        if reserved != 0 || body[len..].iter().any(|&b| b != 0) {
            return Err(err(at, format!("segment {found} has non-zero reserved or pad bytes")));
        }
        if found != tag {
            return Err(err(at, format!("expected segment {tag}, found segment {found}")));
        }
        self.pos = at + HEADER + padded + 8;
        Ok(Segment {
            offset: at + HEADER,
            payload: &body[..len],
        })
    }

    /// The next segment must be an empty END, and the file must end there.
    pub fn finish(mut self) -> Result<(), SegmentError> {
        let end = self.expect(END)?;
        if !end.payload.is_empty() {
            return Err(err(end.offset, "END segment carries a payload"));
        }
        match self.data.len() - self.pos {
            0 => Ok(()),
            n => Err(err(self.pos, format!("{n} trailing bytes after END"))),
        }
    }
}

/// Little-endian fields of one payload, read front to back. Running past
/// the payload's end is a [`SegmentError`] at the file offset it happened.
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    bytes: &'a [u8],
    pos: usize,
    offset: usize,
}

impl<'a> Fields<'a> {
    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SegmentError> {
        if n > self.remaining() {
            let short = n - self.remaining();
            return Err(self.error(format!("payload ends {short} bytes short of a {n}-byte field")));
        }
        self.pos += n;
        Ok(&self.bytes[self.pos - n..self.pos])
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, SegmentError> {
        Ok(self.take(1)?[0])
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, SegmentError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, SegmentError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// The next `u64` as an element count, rejected unless the rest of
    /// the payload can hold that many elements of at least `min_each`
    /// bytes — so a hostile count can size no allocation.
    pub fn count(&mut self, min_each: usize) -> Result<usize, SegmentError> {
        let (n, left) = (self.u64()?, self.remaining());
        usize::try_from(n)
            .ok()
            .filter(|&n| n.checked_mul(min_each).is_some_and(|need| need <= left))
            .ok_or_else(|| self.error(format!("count {n} does not fit the {left} payload bytes left")))
    }

    /// Payload bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The payload must be fully read.
    pub fn end(self) -> Result<(), SegmentError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.error(format!("{n} trailing bytes in the payload"))),
        }
    }

    /// An error at the current position, for a format's own checks.
    pub fn error(&self, message: impl Into<String>) -> SegmentError {
        err(self.offset + self.pos, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAME: &str = "emtest v1";
    const SEGS: [(u32, &[u8]); 3] = [(1, b"hello, segments"), (2, b""), (3, &[7u8; 24])];

    /// Read `SEGS`' shape back: tags 1, 2, 3, then END.
    fn read(data: &[u8]) -> Result<Vec<Segment<'_>>, SegmentError> {
        let mut r = SegmentReader::open(data, NAME)?;
        let segs = (1..=3).map(|tag| r.expect(tag)).collect::<Result<_, _>>()?;
        r.finish()?;
        Ok(segs)
    }

    #[test]
    fn round_trips_and_aligns_every_payload() {
        let data = encode(NAME, &SEGS);
        for (seg, (_, want)) in read(&data).unwrap().iter().zip(SEGS) {
            assert_eq!((seg.payload, seg.offset % 8), (want, 0));
            assert_eq!(&data[seg.offset..seg.offset + want.len()], want);
        }
    }

    /// The one corruption matrix: every damage a torn write, a bad disk
    /// or a hand edit can do is a typed error — never a panic, never a
    /// file that reads as something else. Runs in debug builds, so an
    /// overflow in the length arithmetic would panic here.
    #[test]
    fn corruption_matrix_is_typed_errors() {
        let data = encode(NAME, &SEGS);
        let fails = |bytes: &[u8], want: &str| {
            let e = read(bytes).unwrap_err();
            assert!(e.message.contains(want), "expected `{want}`, got `{e}`");
            e
        };
        for cut in 0..data.len() {
            assert!(read(&data[..cut]).is_err(), "prefix of {cut} bytes read");
        }
        for i in MAGIC_LEN..data.len() {
            for mask in [0x01, 0x80] {
                let mut bad = data.clone();
                bad[i] ^= mask;
                assert!(read(&bad).is_err(), "flip {mask:#x} at byte {i} read");
            }
        }
        for extra in [1, 8, 32] {
            let mut bad = data.clone();
            bad.resize(data.len() + extra, 0);
            fails(&bad, &format!("{extra} trailing bytes after END"));
        }
        fails(&data[..data.len() - 24], "missing END");
        // Length fields of u64::MAX and one byte past the end.
        let room = (data.len() - MAGIC_LEN - HEADER - 8) as u64;
        for len in [u64::MAX, u64::MAX - 7, room + 1] {
            let mut bad = data.clone();
            bad[MAGIC_LEN + 8..MAGIC_LEN + 16].copy_from_slice(&len.to_le_bytes());
            assert_eq!(fails(&bad, "runs past the end").offset, MAGIC_LEN);
        }
        // An unexpected tag, and END where a segment is due, in files
        // that are otherwise sound.
        fails(&encode(NAME, &[SEGS[0], SEGS[2], SEGS[1]]), "expected segment 2, found segment 3");
        fails(&encode(NAME, &SEGS[..1]), "expected segment 2, found segment 0");
        // A flipped payload byte leaves the walk intact: the checksum
        // catches it. Non-zero pad under a recomputed checksum is refused.
        let mut bad = data.clone();
        bad[MAGIC_LEN + HEADER] ^= 0x20;
        fails(&bad, "segment 1 checksum mismatch");
        let (payload, pad) = (MAGIC_LEN + HEADER, MAGIC_LEN + HEADER + 15);
        let mut bad = data.clone();
        bad[pad] = 1;
        let sum = checksum(&bad[MAGIC_LEN..payload], &bad[payload..pad + 1]);
        bad[pad + 1..pad + 9].copy_from_slice(&sum.to_le_bytes());
        fails(&bad, "non-zero reserved or pad");
    }

    #[test]
    fn wrong_magic_names_what_it_found() {
        let e = |data: &[u8]| SegmentReader::open(data, "emckpt v3").unwrap_err().message;
        let v1 = e(b"emckpt v1\nphase blocked\n");
        assert!(v1.contains("bad magic: expected `emckpt v3`, found `emckpt v1`"), "{v1}");
        assert!(e(b"emckpt v2\0\x01\x05\0\0\0").contains("found `emckpt v2`"));
        assert!(e(b"emtbl v1\x03\0\0\0\0\0\0\0").contains("found `emtbl v1`"));
        assert!(e(&encode("emckpt v4", &[])).contains("found `emckpt v4`"));
        assert!(e(b"").contains("found no magic") && e(&[0xff; 32]).contains("found no magic"));
        assert!(e(b"emckpt v3").contains("bad magic"), "a bare name is not the padded magic");
    }

    #[test]
    fn fields_read_front_to_back_and_refuse_hostile_counts() {
        let payload = [&2u64.to_le_bytes()[..], &7u32.to_le_bytes(), &[9], b"ab"].concat();
        let data = encode(NAME, &[(1, &payload), (2, &u64::MAX.to_le_bytes())]);
        let mut r = SegmentReader::open(&data, NAME).unwrap();
        let seg = r.expect(1).unwrap();
        let mut f = seg.fields();
        assert_eq!((f.count(1).unwrap(), f.u32().unwrap(), f.u8().unwrap()), (2, 7, 9));
        assert_eq!(f.take(2).unwrap(), b"ab");
        assert!(f.clone().u8().unwrap_err().message.contains("1 bytes short"));
        f.end().unwrap();
        let e = seg.fields().count(8).unwrap_err();
        assert!(e.message.contains("count 2 does not fit the 7"), "{e}");
        assert_eq!(e.offset, seg.offset + 8);
        let mut f = seg.fields();
        f.u64().unwrap();
        assert!(f.end().unwrap_err().message.contains("7 trailing bytes"));
        assert!(r.expect(2).unwrap().fields().count(1).is_err(), "a count of u64::MAX");
        r.finish().unwrap();
    }
}
