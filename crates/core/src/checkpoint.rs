//! Phase-level checkpointing for the production executor.
//!
//! §4.1's production stage runs for hours over full tables; a process
//! death at hour three should not restart blocking from scratch. The
//! executor therefore writes a durable [`Checkpoint`] after each phase —
//! the candidate set after blocking, the match set when done.
//!
//! Two wire formats share one parser entry point
//! ([`Checkpoint::from_bytes`], which handshakes on the magic):
//!
//! - **`emckpt v1`** — the original line-oriented text format, still
//!   written by [`Checkpoint::to_text`] and read forever (old files keep
//!   resuming).
//! - **`emckpt v2`** — the binary format the executor writes today
//!   ([`Checkpoint::to_bytes`]): length-prefixed per-phase segments, each
//!   carrying its own FNV-1a checksum, with candidate pair lists stored
//!   as zigzag-varint deltas. A 10M-pair candidate set is a few dozen MB
//!   instead of the multi-hundred-MB text serialization, and a torn
//!   write is caught by the damaged segment's checksum instead of being
//!   half-parsed into a plausible but wrong resume state.
//!
//! The formats are deliberately dumb: a corrupt or truncated checkpoint
//! is a **fatal** [`MagellanError::Checkpoint`] (retrying cannot fix bad
//! bytes), while an I/O blip during save/load is **transient** and the
//! executor retries it under its [`magellan_faults::RetryPolicy`].
//! The helpers [`fnv1a`], [`append_checksum`], and [`verify_checksum`]
//! are public so other line-oriented persistence surfaces (e.g. the
//! service-layer `emsvc v1` checkpoint) share the same trailer
//! convention.
//!
//! Stores are pluggable via [`CheckpointStore`] — byte-oriented at the
//! trait level, with text convenience wrappers for the v1-era line
//! formats (`emsvc v1`, `emstream v1`) layered on top. [`MemStore`]
//! backs the chaos suite, [`FileStore`] backs real runs, and
//! [`FlakyStore`] wraps either with seeded transient I/O faults from a
//! [`magellan_faults::FaultPlan`] so the retry loop is exercised
//! deterministically (torn-write semantics carry over to v2 unchanged).

use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;

use magellan_faults::FaultPlan;

use crate::error::MagellanError;

/// The checkpointable phases of a production run, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Candidate generation over the two tables.
    Blocking,
    /// Feature extraction + prediction + rule layer.
    Matching,
}

impl Phase {
    /// Stable lowercase name used in checkpoints and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Blocking => "blocking",
            Phase::Matching => "matching",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A durable snapshot of a production run after some phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Checkpoint {
    /// Blocking finished: the candidate set survives a restart.
    Blocked {
        /// Candidate pairs `(a_row, b_row)` in blocker output order.
        candidates: Vec<(u32, u32)>,
    },
    /// The whole run finished: the match set and candidate count survive.
    Done {
        /// Predicted match pairs in decision order.
        matches: Vec<(u32, u32)>,
        /// Candidate pairs that were examined.
        n_candidates: usize,
    },
}

impl Checkpoint {
    /// The phase whose completion this checkpoint records.
    pub fn phase(&self) -> Phase {
        match self {
            Checkpoint::Blocked { .. } => Phase::Blocking,
            Checkpoint::Done { .. } => Phase::Matching,
        }
    }

    /// Serialize to the `emckpt v1` text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("emckpt v1\n");
        match self {
            Checkpoint::Blocked { candidates } => {
                out.push_str("phase blocked\n");
                write_pairs(&mut out, candidates);
            }
            Checkpoint::Done {
                matches,
                n_candidates,
            } => {
                out.push_str("phase done\n");
                out.push_str(&format!("n_candidates {n_candidates}\n"));
                write_pairs(&mut out, matches);
            }
        }
        out.push_str("end\n");
        append_checksum(&mut out);
        out
    }

    /// Parse the `emckpt v1` text format. Any deviation — wrong magic,
    /// missing or mismatched checksum trailer, unknown phase, bad pair
    /// syntax, missing `end` — is a fatal [`MagellanError::Checkpoint`]
    /// carrying the offending line number.
    pub fn from_text(text: &str) -> Result<Checkpoint, MagellanError> {
        // Magic first: "this is not a checkpoint at all" beats "this
        // checkpoint has no checksum" as a diagnosis.
        let magic = text.lines().next().ok_or_else(|| corrupt(1, "empty checkpoint"))?;
        if magic.trim() != "emckpt v1" {
            return Err(corrupt(1, format!("bad magic `{magic}`")));
        }
        let payload = verify_checksum(text)?;
        let mut lines = payload.lines().enumerate();
        lines.next(); // magic, validated above
        let (_, phase_line) = lines
            .next()
            .ok_or_else(|| corrupt(2, "missing phase line"))?;
        let phase = phase_line
            .trim()
            .strip_prefix("phase ")
            .ok_or_else(|| corrupt(2, format!("expected `phase ...`, got `{phase_line}`")))?;
        match phase {
            "blocked" => {
                let candidates = read_pairs(&mut lines)?;
                expect_end(&mut lines)?;
                Ok(Checkpoint::Blocked { candidates })
            }
            "done" => {
                let (no, line) = lines
                    .next()
                    .ok_or_else(|| corrupt(3, "missing n_candidates line"))?;
                let n_candidates = line
                    .trim()
                    .strip_prefix("n_candidates ")
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| {
                        corrupt(no + 1, format!("expected `n_candidates <usize>`, got `{line}`"))
                    })?;
                let matches = read_pairs(&mut lines)?;
                expect_end(&mut lines)?;
                Ok(Checkpoint::Done {
                    matches,
                    n_candidates,
                })
            }
            other => Err(corrupt(2, format!("unknown phase `{other}`"))),
        }
    }

    /// Serialize to the binary `emckpt v2` format:
    ///
    /// ```text
    /// "emckpt v2\0"                                   10-byte magic
    /// segment := tag:u8 len:u32le payload[len] fnv1a(payload):u64le
    ///   0x01 phase   — 0x00 (blocked) | 0x01 n_candidates:u64le (done)
    ///   0x02 pairs   — count:u64le, then per pair zigzag-varint deltas
    ///                  (l - prev_l, r - prev_r; prev starts at (0, 0))
    ///   0xee end     — empty payload, marks a complete file
    /// ```
    ///
    /// Blocker output is near-sorted, so the deltas are tiny and most
    /// pairs cost 2–4 bytes instead of ~12 bytes of text. Each segment
    /// carries its own checksum, so a torn write is pinned to the damaged
    /// segment instead of poisoning the whole-file trailer diagnosis.
    pub fn to_bytes(&self) -> Vec<u8> {
        let _span = magellan_obs::span("ckpt_write", 0);
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MAGIC_V2);
        match self {
            Checkpoint::Blocked { candidates } => {
                push_segment(&mut out, SEG_PHASE, &[PHASE_BLOCKED]);
                push_segment(&mut out, SEG_PAIRS, &encode_pairs(candidates));
            }
            Checkpoint::Done {
                matches,
                n_candidates,
            } => {
                let mut phase = vec![PHASE_DONE];
                phase.extend_from_slice(&(*n_candidates as u64).to_le_bytes());
                push_segment(&mut out, SEG_PHASE, &phase);
                push_segment(&mut out, SEG_PAIRS, &encode_pairs(matches));
            }
        }
        push_segment(&mut out, SEG_END, &[]);
        magellan_obs::span_res_add("ckpt_bytes", out.len() as u64);
        magellan_obs::counter_add("magellan_core_checkpoint_bytes_total", out.len() as u64);
        out
    }

    /// Parse a checkpoint of either format, handshaking on the magic:
    /// `emckpt v1` text parses via [`Checkpoint::from_text`] (old files
    /// keep resuming), `emckpt v2` parses the binary segments. Anything
    /// else — unknown magic, truncated or checksum-failed segment,
    /// trailing bytes, out-of-range pair — is a fatal
    /// [`MagellanError::Checkpoint`] carrying the offending byte offset.
    pub fn from_bytes(data: &[u8]) -> Result<Checkpoint, MagellanError> {
        let _span = magellan_obs::span("ckpt_read", 0);
        magellan_obs::span_res_add("ckpt_bytes", data.len() as u64);
        if data.starts_with(b"emckpt v1") {
            let text = std::str::from_utf8(data)
                .map_err(|_| corrupt(0, "v1 checkpoint is not UTF-8 text"))?;
            return Checkpoint::from_text(text);
        }
        if !data.starts_with(MAGIC_V2) {
            return Err(corrupt(
                0,
                "bad magic (neither `emckpt v1` nor `emckpt v2`)",
            ));
        }
        let mut r = ByteReader {
            data,
            pos: MAGIC_V2.len(),
        };
        let (tag, phase_payload) = read_segment(&mut r)?;
        if tag != SEG_PHASE {
            return Err(corrupt_at(0, format!("expected phase segment, got tag 0x{tag:02x}")));
        }
        let (tag, pairs_payload) = read_segment(&mut r)?;
        if tag != SEG_PAIRS {
            return Err(corrupt_at(0, format!("expected pairs segment, got tag 0x{tag:02x}")));
        }
        let (tag, end_payload) = read_segment(&mut r)?;
        if tag != SEG_END || !end_payload.is_empty() {
            return Err(corrupt_at(0, "missing end segment (truncated checkpoint)"));
        }
        if r.pos != data.len() {
            return Err(corrupt_at(
                r.pos,
                "trailing bytes after end segment (torn write or tampered checkpoint)",
            ));
        }
        let pairs = decode_pairs(pairs_payload)?;
        match phase_payload {
            [PHASE_BLOCKED] => Ok(Checkpoint::Blocked { candidates: pairs }),
            [PHASE_DONE, rest @ ..] if rest.len() == 8 => Ok(Checkpoint::Done {
                matches: pairs,
                n_candidates: u64::from_le_bytes(rest.try_into().expect("8 bytes")) as usize,
            }),
            _ => Err(corrupt_at(0, "malformed phase segment payload")),
        }
    }
}

fn write_pairs(out: &mut String, pairs: &[(u32, u32)]) {
    out.push_str(&format!("pairs {}\n", pairs.len()));
    for (a, b) in pairs {
        out.push_str(&format!("{a} {b}\n"));
    }
}

fn read_pairs<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> Result<Vec<(u32, u32)>, MagellanError> {
    let (no, header) = lines
        .next()
        .ok_or_else(|| corrupt(0, "missing pairs header"))?;
    let n = header
        .trim()
        .strip_prefix("pairs ")
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| corrupt(no + 1, format!("expected `pairs <len>`, got `{header}`")))?;
    let mut pairs = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let (no, line) = lines
            .next()
            .ok_or_else(|| corrupt(0, "truncated pair list"))?;
        let mut it = line.trim().split_whitespace();
        let pair = (|| {
            let a = it.next()?.parse::<u32>().ok()?;
            let b = it.next()?.parse::<u32>().ok()?;
            if it.next().is_some() {
                return None;
            }
            Some((a, b))
        })()
        .ok_or_else(|| corrupt(no + 1, format!("bad pair `{line}`")))?;
        pairs.push(pair);
    }
    Ok(pairs)
}

fn expect_end<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> Result<(), MagellanError> {
    match lines.next() {
        Some((_, l)) if l.trim() == "end" => Ok(()),
        Some((no, l)) => Err(corrupt(no + 1, format!("expected `end`, got `{l}`"))),
        None => Err(corrupt(0, "missing `end` terminator (truncated checkpoint)")),
    }
}

/// Magic prefix of the binary v2 format. The trailing NUL can never open
/// a v1 text file (whose magic line ends in `\n`), so the handshake in
/// [`Checkpoint::from_bytes`] is unambiguous.
const MAGIC_V2: &[u8; 10] = b"emckpt v2\0";

const SEG_PHASE: u8 = 0x01;
const SEG_PAIRS: u8 = 0x02;
const SEG_END: u8 = 0xee;

const PHASE_BLOCKED: u8 = 0x00;
const PHASE_DONE: u8 = 0x01;

/// Append one `tag len payload checksum` segment.
fn push_segment(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let _span = magellan_obs::span("ckpt_segment_write", u64::from(tag));
    out.push(tag);
    out.extend_from_slice(&u32::try_from(payload.len()).expect("segment < 4 GiB").to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
}

/// Bounds-checked cursor over a v2 byte buffer; every failure is a fatal
/// corruption error carrying the byte offset.
struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], MagellanError> {
        if self.data.len() - self.pos < n {
            return Err(corrupt_at(self.pos, format!("truncated {what}")));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Read one segment, verifying its checksum.
fn read_segment<'a>(r: &mut ByteReader<'a>) -> Result<(u8, &'a [u8]), MagellanError> {
    let at = r.pos;
    let tag = r.take(1, "segment tag")?[0];
    let _span = magellan_obs::span("ckpt_segment_read", u64::from(tag));
    let len = u32::from_le_bytes(r.take(4, "segment length")?.try_into().expect("4 bytes"));
    let payload = r.take(len as usize, "segment payload")?;
    let stored = u64::from_le_bytes(r.take(8, "segment checksum")?.try_into().expect("8 bytes"));
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(corrupt_at(
            at,
            format!(
                "segment 0x{tag:02x} checksum mismatch: stored {stored:016x}, \
                 computed {computed:016x} (torn write or tampered checkpoint)"
            ),
        ));
    }
    Ok((tag, payload))
}

fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(payload: &[u8], pos: &mut usize) -> Result<u64, MagellanError> {
    let mut v = 0u64;
    for shift in 0..10 {
        let b = *payload
            .get(*pos)
            .ok_or_else(|| corrupt_at(*pos, "truncated varint in pair list"))?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << (shift * 7);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(corrupt_at(*pos, "overlong varint in pair list"))
}

/// Pair-list payload: `count:u64le` then zigzag-varint deltas per pair.
fn encode_pairs(pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + pairs.len() * 3);
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    let (mut pl, mut pr) = (0i64, 0i64);
    for &(l, r) in pairs {
        push_varint(&mut out, zigzag(i64::from(l) - pl));
        push_varint(&mut out, zigzag(i64::from(r) - pr));
        pl = i64::from(l);
        pr = i64::from(r);
    }
    out
}

fn decode_pairs(payload: &[u8]) -> Result<Vec<(u32, u32)>, MagellanError> {
    if payload.len() < 8 {
        return Err(corrupt_at(0, "truncated pair count"));
    }
    let n = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes")) as usize;
    let mut pos = 8;
    let mut pairs = Vec::with_capacity(n.min(1 << 20));
    let (mut pl, mut pr) = (0i64, 0i64);
    for _ in 0..n {
        let l = pl + unzigzag(read_varint(payload, &mut pos)?);
        let r = pr + unzigzag(read_varint(payload, &mut pos)?);
        let pair = (u32::try_from(l).ok(), u32::try_from(r).ok());
        let (Some(l32), Some(r32)) = pair else {
            return Err(corrupt_at(pos, format!("pair ({l}, {r}) out of u32 range")));
        };
        pairs.push((l32, r32));
        (pl, pr) = (l, r);
    }
    if pos != payload.len() {
        return Err(corrupt_at(pos, "trailing bytes in pair list"));
    }
    Ok(pairs)
}

fn corrupt_at(off: usize, msg: impl fmt::Display) -> MagellanError {
    MagellanError::Checkpoint {
        message: format!("corrupt checkpoint at byte {off}: {msg}"),
        transient: false,
    }
}

/// 64-bit FNV-1a — the integrity hash behind every checkpoint's
/// `sum fnv1a` trailer and `emckpt v2` segment.
pub use magellan_obs::fnv1a;

/// Append a `sum fnv1a <16 hex>\n` trailer covering everything currently
/// in `text`.
pub fn append_checksum(text: &mut String) {
    let sum = fnv1a(text.as_bytes());
    text.push_str(&format!("sum fnv1a {sum:016x}\n"));
}

/// Validate the `sum fnv1a` trailer of a checkpoint text and return the
/// payload it covers (everything before the trailer line). Missing,
/// malformed, or mismatched checksums are fatal corruption errors — a
/// mismatch is exactly what a torn write or tampered file looks like.
pub fn verify_checksum(text: &str) -> Result<&str, MagellanError> {
    let idx = text.rfind("sum fnv1a ").ok_or_else(|| {
        corrupt(0, "missing `sum fnv1a` checksum trailer (truncated checkpoint)")
    })?;
    // The trailer must start a line, not hide inside one.
    if idx > 0 && text.as_bytes()[idx - 1] != b'\n' {
        return Err(corrupt(0, "checksum trailer not at start of line"));
    }
    let (payload, trailer) = text.split_at(idx);
    let hex = trailer.trim_start_matches("sum fnv1a ").trim_end();
    let stored = if hex.len() == 16 {
        u64::from_str_radix(hex, 16).ok()
    } else {
        None
    };
    let stored = stored.ok_or_else(|| {
        corrupt(0, format!("malformed checksum trailer `{}`", trailer.trim_end()))
    })?;
    let computed = fnv1a(payload.as_bytes());
    if computed != stored {
        return Err(corrupt(
            0,
            format!(
                "checksum mismatch: stored {hex}, computed {computed:016x} \
                 (torn write or tampered checkpoint)"
            ),
        ));
    }
    Ok(payload)
}

fn corrupt(line: usize, msg: impl fmt::Display) -> MagellanError {
    MagellanError::Checkpoint {
        message: if line == 0 {
            format!("corrupt checkpoint: {msg}")
        } else {
            format!("corrupt checkpoint at line {line}: {msg}")
        },
        transient: false,
    }
}

/// Where checkpoints live. Byte-oriented at the trait level:
/// `save_bytes`/`load_bytes` may fail transiently (I/O); callers retry
/// under a [`magellan_faults::RetryPolicy`]. `load_bytes` returning
/// `Ok(None)` means "no checkpoint yet" — a fresh run.
///
/// The provided [`save`](CheckpointStore::save)/[`load`](CheckpointStore::load)
/// wrappers serve the line-oriented text formats that share these stores
/// (`emsvc v1`, `emstream v1`): they store UTF-8 bytes, and a text
/// caller loading non-UTF-8 bytes gets a fatal corruption error.
pub trait CheckpointStore {
    /// Durably replace the stored checkpoint bytes.
    fn save_bytes(&mut self, data: &[u8]) -> Result<(), MagellanError>;
    /// Read back the stored checkpoint bytes, if any.
    fn load_bytes(&mut self) -> Result<Option<Vec<u8>>, MagellanError>;
    /// Discard any stored checkpoint.
    fn clear(&mut self) -> Result<(), MagellanError>;

    /// Text convenience over [`save_bytes`](CheckpointStore::save_bytes).
    fn save(&mut self, text: &str) -> Result<(), MagellanError> {
        self.save_bytes(text.as_bytes())
    }

    /// Text convenience over [`load_bytes`](CheckpointStore::load_bytes).
    fn load(&mut self) -> Result<Option<String>, MagellanError> {
        match self.load_bytes()? {
            None => Ok(None),
            Some(bytes) => String::from_utf8(bytes)
                .map(Some)
                .map_err(|_| corrupt(0, "stored checkpoint is not UTF-8 text")),
        }
    }
}

/// In-memory store for tests and the chaos suite.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    data: Option<Vec<u8>>,
}

impl MemStore {
    /// Empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// The stored text, for assertions (`None` if binary is stored).
    pub fn raw(&self) -> Option<&str> {
        self.data.as_deref().and_then(|b| std::str::from_utf8(b).ok())
    }

    /// The raw stored bytes, for assertions.
    pub fn raw_bytes(&self) -> Option<&[u8]> {
        self.data.as_deref()
    }
}

impl CheckpointStore for MemStore {
    fn save_bytes(&mut self, data: &[u8]) -> Result<(), MagellanError> {
        self.data = Some(data.to_vec());
        Ok(())
    }

    fn load_bytes(&mut self) -> Result<Option<Vec<u8>>, MagellanError> {
        Ok(self.data.clone())
    }

    fn clear(&mut self) -> Result<(), MagellanError> {
        self.data = None;
        Ok(())
    }
}

/// File-backed store: writes to a sibling temp file then renames, so a
/// death mid-save leaves the previous checkpoint intact.
#[derive(Debug, Clone)]
pub struct FileStore {
    path: PathBuf,
}

impl FileStore {
    /// Store at `path`. The parent directory must exist.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileStore { path: path.into() }
    }

    /// The checkpoint path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl CheckpointStore for FileStore {
    fn save_bytes(&mut self, data: &[u8]) -> Result<(), MagellanError> {
        let tmp = self.path.with_extension("tmp");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }

    fn load_bytes(&mut self) -> Result<Option<Vec<u8>>, MagellanError> {
        match std::fs::read(&self.path) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn clear(&mut self) -> Result<(), MagellanError> {
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

/// Wraps any store with seeded transient I/O failures drawn from a
/// [`FaultPlan`], so checkpoint retry loops can be exercised
/// deterministically. Each operation site (save/load/clear) fails for a
/// bounded run of consecutive attempts, then succeeds — mirroring the
/// plan's `max_failures_per_site` convergence guarantee.
#[derive(Debug, Clone)]
pub struct FlakyStore<S> {
    /// The real store.
    pub inner: S,
    /// Where the injected faults come from.
    pub plan: FaultPlan,
    ops: [FlakyOp; 3],
}

#[derive(Debug, Clone, Copy, Default)]
struct FlakyOp {
    /// Distinct logical operation count (bumps on success).
    op: u64,
    /// Consecutive failed attempts of the current logical operation.
    attempt: u32,
}

/// Operation sites for [`FlakyStore`]'s fault keying.
const OP_SAVE: u64 = 0x5a;
const OP_LOAD: u64 = 0x10;
const OP_CLEAR: u64 = 0xc1;

impl<S> FlakyStore<S> {
    /// Wrap `inner`, drawing faults from `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FlakyStore {
            inner,
            plan,
            ops: [FlakyOp::default(); 3],
        }
    }

    /// Returns an injected transient error, or advances to success.
    fn gate(&mut self, site: usize, tag: u64, what: &str) -> Result<(), MagellanError> {
        let st = &mut self.ops[site];
        if self.plan.io_fails(tag.wrapping_add(st.op << 8), st.attempt) {
            st.attempt += 1;
            return Err(MagellanError::Checkpoint {
                message: format!("injected transient I/O failure during checkpoint {what}"),
                transient: true,
            });
        }
        st.attempt = 0;
        st.op += 1;
        Ok(())
    }
}

impl<S: CheckpointStore> CheckpointStore for FlakyStore<S> {
    fn save_bytes(&mut self, data: &[u8]) -> Result<(), MagellanError> {
        self.gate(0, OP_SAVE, "save")?;
        self.inner.save_bytes(data)
    }

    fn load_bytes(&mut self) -> Result<Option<Vec<u8>>, MagellanError> {
        self.gate(1, OP_LOAD, "load")?;
        self.inner.load_bytes()
    }

    fn clear(&mut self) -> Result<(), MagellanError> {
        self.gate(2, OP_CLEAR, "clear")?;
        self.inner.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_round_trips() {
        let ck = Checkpoint::Blocked {
            candidates: vec![(0, 1), (2, 3), (7, 7)],
        };
        assert_eq!(ck.phase(), Phase::Blocking);
        let text = ck.to_text();
        assert!(text.starts_with("emckpt v1\n"));
        assert_eq!(Checkpoint::from_text(&text).unwrap(), ck);
    }

    #[test]
    fn done_round_trips() {
        let ck = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9)],
            n_candidates: 42,
        };
        assert_eq!(ck.phase(), Phase::Matching);
        assert_eq!(Checkpoint::from_text(&ck.to_text()).unwrap(), ck);
        // Empty match set round-trips too.
        let ck = Checkpoint::Done {
            matches: vec![],
            n_candidates: 0,
        };
        assert_eq!(Checkpoint::from_text(&ck.to_text()).unwrap(), ck);
    }

    /// Appends a *correct* checksum trailer so tests can probe the
    /// structural validation behind it.
    fn with_sum(payload: &str) -> String {
        let mut s = payload.to_string();
        append_checksum(&mut s);
        s
    }

    #[test]
    fn corrupt_checkpoints_are_fatal_with_line_numbers() {
        for (text, needle) in [
            (String::new(), "empty"),
            ("not a checkpoint\n".into(), "bad magic"),
            (with_sum("emckpt v1\n"), "missing phase"),
            (with_sum("emckpt v1\nphase warp\npairs 0\nend\n"), "unknown phase"),
            (with_sum("emckpt v1\nphase blocked\npairs two\nend\n"), "pairs"),
            (with_sum("emckpt v1\nphase blocked\npairs 2\n1 2\n"), "truncated"),
            (with_sum("emckpt v1\nphase blocked\npairs 1\n1 2 3\nend\n"), "bad pair"),
            (with_sum("emckpt v1\nphase blocked\npairs 1\nx y\nend\n"), "bad pair"),
            (with_sum("emckpt v1\nphase done\npairs 0\nend\n"), "n_candidates"),
            (with_sum("emckpt v1\nphase blocked\npairs 0\nEND\n"), "expected `end`"),
            // Checksum-layer failures.
            ("emckpt v1\nphase blocked\npairs 0\nend\n".into(), "missing `sum fnv1a`"),
            ("emckpt v1\nend\nsum fnv1a zz\n".into(), "malformed checksum"),
            (
                "emckpt v1\nphase blocked\npairs 0\nend\nsum fnv1a 0000000000000000\n".into(),
                "checksum mismatch",
            ),
        ] {
            let err = Checkpoint::from_text(&text).unwrap_err();
            assert!(err.fatal(), "{text:?} should be fatal");
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        }
        // Line numbers point at the offending line.
        let err =
            Checkpoint::from_text(&with_sum("emckpt v1\nphase blocked\npairs 1\nbad\nend\n"))
                .unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }

    #[test]
    fn checksum_detects_truncation_and_tampering() {
        let ck = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9), (11, 13)],
            n_candidates: 42,
        };
        let text = ck.to_text();
        assert!(text.contains("\nsum fnv1a "), "to_text must append a trailer");
        assert_eq!(Checkpoint::from_text(&text).unwrap(), ck);
        // Every strict prefix is rejected — a torn write can never be
        // mistaken for a complete checkpoint. (The final newline alone is
        // cosmetic, so the loop stops one byte short of it.)
        for cut in 1..text.len() - 1 {
            assert!(
                Checkpoint::from_text(&text[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
        // Flipping one digit inside the pair list is caught by the
        // checksum even though the result is structurally valid.
        let tampered = text.replacen("5 9", "5 8", 1);
        assert_ne!(tampered, text);
        let err = Checkpoint::from_text(&tampered).unwrap_err();
        assert!(err.fatal());
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // fnv1a is the reference function (pinned vector).
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn torn_write_through_flaky_store_is_detected_not_half_parsed() {
        // An old checkpoint sits in the store; a crash mid-save splices
        // the new text's head onto the old text's tail. Pre-checksum that
        // hybrid parsed cleanly into a *wrong* resume state; now it is a
        // precise fatal corruption error.
        let old = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9)],
            n_candidates: 42,
        }
        .to_text();
        let new = Checkpoint::Done {
            matches: vec![(3, 4), (6, 8)],
            n_candidates: 43,
        }
        .to_text();
        assert_eq!(old.len(), new.len(), "same shape so the splice stays line-valid");
        // Tear inside the pair list: new header + first new pair, old tail.
        let cut = new.find("3 4\n").unwrap() + 4;
        let torn = format!("{}{}", &new[..cut], &old[cut..]);
        let plan = FaultPlan {
            io_error_per_mille: 1000,
            ..FaultPlan::seeded(17)
        };
        let mut store = FlakyStore::new(MemStore::new(), plan);
        // The save that tore: model it by placing the hybrid bytes in the
        // inner store directly (FlakyStore injects errors, not bytes).
        store.inner.save(&torn).unwrap();
        let mut clock = magellan_faults::SimClock::new();
        let loaded = magellan_faults::run_with_retry(
            &magellan_faults::RetryPolicy::default(),
            &mut clock,
            |_| store.load(),
        )
        .expect("transient injected I/O converges under retry")
        .expect("a checkpoint is present");
        let err = Checkpoint::from_text(&loaded).unwrap_err();
        assert!(err.fatal(), "torn write must be fatal, not retried");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // Control: the same hybrid payload with a freshly computed trailer
        // *would* parse — the checksum is what catches the tear.
        let payload_end = torn.rfind("sum fnv1a ").unwrap();
        let mut reblessed = torn[..payload_end].to_string();
        append_checksum(&mut reblessed);
        assert!(Checkpoint::from_text(&reblessed).is_ok());
    }

    #[test]
    fn v2_round_trips_and_handshakes_with_v1() {
        let blocked = Checkpoint::Blocked {
            candidates: vec![(0, 1), (2, 3), (7, 7), (7, 9)],
        };
        let done = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9)],
            n_candidates: 42,
        };
        let empty = Checkpoint::Done {
            matches: vec![],
            n_candidates: 0,
        };
        for ck in [&blocked, &done, &empty] {
            let bytes = ck.to_bytes();
            assert!(bytes.starts_with(b"emckpt v2\0"));
            assert_eq!(&Checkpoint::from_bytes(&bytes).unwrap(), ck);
            // Cross-version: v1 text bytes parse through the same entry
            // point — old checkpoint files keep resuming.
            assert_eq!(&Checkpoint::from_bytes(ck.to_text().as_bytes()).unwrap(), ck);
        }
        // Deltas go negative when pairs are not sorted; zigzag handles it.
        let unsorted = Checkpoint::Blocked {
            candidates: vec![(9, 100), (0, 3), (u32::MAX, 0)],
        };
        assert_eq!(Checkpoint::from_bytes(&unsorted.to_bytes()).unwrap(), unsorted);
    }

    #[test]
    fn v2_corruption_matrix_is_fatal() {
        let ck = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9), (11, 13)],
            n_candidates: 42,
        };
        let bytes = ck.to_bytes();
        // Every strict prefix is a truncation error, never a parse.
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(err.fatal(), "prefix of {cut} bytes must be fatal");
        }
        // Flipping any single byte after the magic is caught — by a
        // segment checksum, a structural check, or the length walk.
        for i in MAGIC_V2.len()..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "flipped byte {i} must not parse"
            );
        }
        // Specific diagnoses.
        let err = Checkpoint::from_bytes(b"emtbl v1\0\0").unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        let mut pairs_flipped = bytes.clone();
        let pair_region = bytes.len() - 13 - 8 - 2; // inside the pairs payload
        pairs_flipped[pair_region] ^= 0x01;
        let err = Checkpoint::from_bytes(&pairs_flipped).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let mut trailing = bytes.clone();
        trailing.push(0);
        let err = Checkpoint::from_bytes(&trailing).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        // Unknown phase code: build a structurally valid file by hand.
        let mut weird = Vec::from(&MAGIC_V2[..]);
        push_segment(&mut weird, SEG_PHASE, &[0x7f]);
        push_segment(&mut weird, SEG_PAIRS, &encode_pairs(&[]));
        push_segment(&mut weird, SEG_END, &[]);
        let err = Checkpoint::from_bytes(&weird).unwrap_err();
        assert!(err.to_string().contains("phase segment"), "{err}");
    }

    #[test]
    fn v2_torn_write_through_flaky_store_is_detected() {
        // Same scenario as the v1 torn-write test, on the binary format:
        // a crash mid-save splices the new file's head onto the old
        // file's tail. The pairs segment's checksum covers the old
        // payload, so the hybrid is a precise fatal error.
        let old = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9)],
            n_candidates: 42,
        }
        .to_bytes();
        let new = Checkpoint::Done {
            matches: vec![(3, 4), (6, 8)],
            n_candidates: 43,
        }
        .to_bytes();
        assert_eq!(old.len(), new.len(), "same shape so the splice stays segment-valid");
        // Tear inside the pairs payload: keep the new phase segment and
        // first pair's deltas, splice in the old tail (last deltas, old
        // checksum, end segment).
        let cut = new.len() - 13 /* end segment */ - 8 /* pairs checksum */ - 2;
        let torn: Vec<u8> = new[..cut].iter().chain(&old[cut..]).copied().collect();
        assert_ne!(torn, old);
        assert_ne!(torn, new);
        let plan = FaultPlan {
            io_error_per_mille: 1000,
            ..FaultPlan::seeded(17)
        };
        let mut store = FlakyStore::new(MemStore::new(), plan);
        store.inner.save_bytes(&torn).unwrap();
        let mut clock = magellan_faults::SimClock::new();
        let loaded = magellan_faults::run_with_retry(
            &magellan_faults::RetryPolicy::default(),
            &mut clock,
            |_| store.load_bytes(),
        )
        .expect("transient injected I/O converges under retry")
        .expect("a checkpoint is present");
        let err = Checkpoint::from_bytes(&loaded).unwrap_err();
        assert!(err.fatal(), "torn write must be fatal, not retried");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // Control: reblessing the torn pairs segment with a freshly
        // computed checksum *would* parse (into the wrong pairs) — the
        // per-segment checksum is what catches the tear.
        let payload_start = torn.len() - 13 - 8 - 12; // count u64 + 4 delta bytes
        let sum = fnv1a(&torn[payload_start..torn.len() - 13 - 8]);
        let mut reblessed = torn.clone();
        reblessed[torn.len() - 13 - 8..torn.len() - 13].copy_from_slice(&sum.to_le_bytes());
        let wrong = Checkpoint::from_bytes(&reblessed).unwrap();
        assert_ne!(wrong.to_bytes(), old);
        assert_ne!(wrong.to_bytes(), new);
    }

    #[test]
    fn v2_is_at_most_half_the_text_size() {
        // Blocker output order: runs of ascending (l, r) — the delta
        // encoding's home turf, but the bound must hold broadly.
        let candidates: Vec<(u32, u32)> = (0..10_000u32)
            .map(|i| (i / 4 + 1000, (i % 4) * 37 + i))
            .collect();
        let ck = Checkpoint::Blocked { candidates };
        let text_len = ck.to_text().len();
        let bin_len = ck.to_bytes().len();
        assert!(
            bin_len * 2 <= text_len,
            "v2 ({bin_len} B) must be <= half of v1 text ({text_len} B)"
        );
        assert_eq!(Checkpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    #[test]
    fn text_wrappers_ride_on_byte_store() {
        let mut s = MemStore::new();
        s.save("emsvc v1\nhello\n").unwrap();
        assert_eq!(s.raw(), Some("emsvc v1\nhello\n"));
        assert_eq!(s.load().unwrap().as_deref(), Some("emsvc v1\nhello\n"));
        // Binary bytes stored, text loader: fatal corruption, not UB.
        s.save_bytes(&[0xff, 0xfe, 0x00]).unwrap();
        assert!(s.raw().is_none());
        assert_eq!(s.raw_bytes(), Some(&[0xff, 0xfe, 0x00][..]));
        let err = s.load().unwrap_err();
        assert!(err.fatal());
        assert!(err.to_string().contains("not UTF-8"), "{err}");
    }

    #[test]
    fn mem_store_round_trips_and_clears() {
        let mut s = MemStore::new();
        assert!(s.load().unwrap().is_none());
        s.save("hello").unwrap();
        assert_eq!(s.load().unwrap().as_deref(), Some("hello"));
        s.clear().unwrap();
        assert!(s.load().unwrap().is_none());
    }

    #[test]
    fn file_store_round_trips_and_survives_missing_file() {
        let dir = std::env::temp_dir().join(format!(
            "magellan-ckpt-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = FileStore::new(dir.join("run.emckpt"));
        assert!(s.load().unwrap().is_none());
        let ck = Checkpoint::Blocked {
            candidates: vec![(3, 4)],
        };
        s.save(&ck.to_text()).unwrap();
        let back = Checkpoint::from_text(&s.load().unwrap().unwrap()).unwrap();
        assert_eq!(back, ck);
        s.clear().unwrap();
        assert!(s.load().unwrap().is_none());
        s.clear().unwrap(); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flaky_store_fails_transiently_then_converges() {
        let plan = FaultPlan {
            io_error_per_mille: 1000, // every site draws at least one failure
            ..FaultPlan::seeded(3)
        };
        let mut s = FlakyStore::new(MemStore::new(), plan);
        let mut failures = 0u32;
        let text = Checkpoint::Blocked { candidates: vec![] }.to_text();
        loop {
            match s.save(&text) {
                Ok(()) => break,
                Err(e) => {
                    assert!(e.transient(), "injected I/O faults must be transient");
                    failures += 1;
                    assert!(failures <= plan.max_failures_per_site, "must converge");
                }
            }
        }
        assert!(failures >= 1, "per_mille=1000 should inject at least once");
        // The same logical op retried is deterministic: a fresh store with
        // the same plan fails the same number of times.
        let mut s2 = FlakyStore::new(MemStore::new(), plan);
        let mut failures2 = 0u32;
        while s2.save(&text).is_err() {
            failures2 += 1;
        }
        assert_eq!(failures, failures2);
        // Load eventually works and returns what save stored.
        let loaded = loop {
            match s.load() {
                Ok(v) => break v,
                Err(e) => assert!(e.transient()),
            }
        };
        assert_eq!(loaded.as_deref(), Some(text.as_str()));
    }
}
