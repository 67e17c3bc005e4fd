//! Phase-level checkpointing for the production executor.
//!
//! §4.1's production stage runs for hours over full tables; a process
//! death at hour three should not restart blocking from scratch. The
//! executor therefore writes a durable [`Checkpoint`] after each phase —
//! the candidate set after blocking, the match set when done.
//!
//! The wire format is `emckpt v3`, a [`magellan_table::segment`] file
//! ([`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`]): a phase
//! segment and a pairs segment, the candidate pair list stored as
//! zigzag-varint deltas. A 10M-pair candidate set is a few dozen MB, and
//! a torn write is caught by the damaged segment's checksum instead of
//! being half-parsed into a plausible but wrong resume state.
//!
//! The format is deliberately dumb: a corrupt or truncated checkpoint —
//! or one of an older version — is a **fatal** [`MagellanError::Checkpoint`]
//! (retrying cannot fix bad bytes), while an I/O blip during save/load is
//! **transient** and the executor retries it under its
//! [`magellan_faults::RetryPolicy`].
//!
//! Stores are pluggable via [`CheckpointStore`], which moves bytes; the
//! service (`emsvc v2`) and stream (`emstream v2`) checkpoints share the
//! stores and the codec. [`MemStore`] backs the chaos suite, [`FileStore`]
//! backs real runs, and [`FlakyStore`] wraps either with seeded transient
//! I/O faults from a [`magellan_faults::FaultPlan`] so the retry loop is
//! exercised deterministically.

use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;

use magellan_faults::FaultPlan;
use magellan_table::segment::{self, Fields, SegmentError, SegmentReader};

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

    /// Serialize to `emckpt v3`:
    ///
    /// ```text
    /// magic    "emckpt v3"
    /// 1 phase  0x00 (blocked) | 0x01 n_candidates:u64 (done)
    /// 2 pairs  count:u64, then per pair zigzag-varint deltas
    ///          (l - prev_l, r - prev_r; prev starts at (0, 0))
    /// END
    /// ```
    ///
    /// Blocker output is near-sorted, so the deltas are tiny and most
    /// pairs cost 2–4 bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let _span = magellan_obs::span("ckpt_write", 0);
        let (phase, pairs) = match self {
            Checkpoint::Blocked { candidates } => (vec![PHASE_BLOCKED], candidates),
            Checkpoint::Done {
                matches,
                n_candidates,
            } => {
                let mut phase = vec![PHASE_DONE];
                phase.extend_from_slice(&(*n_candidates as u64).to_le_bytes());
                (phase, matches)
            }
        };
        let out = segment::encode(
            MAGIC,
            &[(SEG_PHASE, &phase), (SEG_PAIRS, &encode_pairs(pairs))],
        );
        magellan_obs::span_res_add("ckpt_bytes", out.len() as u64);
        magellan_obs::counter_add("magellan_core_checkpoint_bytes_total", out.len() as u64);
        out
    }

    /// Parse `emckpt v3`. Anything else — another magic (older versions
    /// included), a truncated or checksum-failed segment, trailing bytes,
    /// an unknown phase, an out-of-range pair, a `Done` checkpoint with
    /// more matches than candidates — is a fatal
    /// [`MagellanError::Checkpoint`] carrying the offending byte offset.
    pub fn from_bytes(data: &[u8]) -> Result<Checkpoint, MagellanError> {
        let _span = magellan_obs::span("ckpt_read", 0);
        magellan_obs::span_res_add("ckpt_bytes", data.len() as u64);
        decode(data).map_err(|e| MagellanError::Checkpoint {
            message: format!("corrupt checkpoint at {e}"),
            transient: false,
        })
    }
}

const MAGIC: &str = "emckpt v3";

const SEG_PHASE: u32 = 1;
const SEG_PAIRS: u32 = 2;

const PHASE_BLOCKED: u8 = 0x00;
const PHASE_DONE: u8 = 0x01;

fn decode(data: &[u8]) -> Result<Checkpoint, SegmentError> {
    let mut file = SegmentReader::open(data, MAGIC)?;
    let mut phase = file.expect(SEG_PHASE)?.fields();
    let pairs = file.expect(SEG_PAIRS)?.fields();
    file.finish()?;
    let pairs = decode_pairs(pairs)?;
    let ck = match phase.u8()? {
        PHASE_BLOCKED => Checkpoint::Blocked { candidates: pairs },
        PHASE_DONE => {
            let n_candidates = phase.u64()? as usize;
            if pairs.len() > n_candidates {
                return Err(phase.error(format!(
                    "{} matches out of {n_candidates} candidates",
                    pairs.len()
                )));
            }
            Checkpoint::Done {
                matches: pairs,
                n_candidates,
            }
        }
        code => return Err(phase.error(format!("unknown phase code {code:#04x}"))),
    };
    phase.end()?;
    Ok(ck)
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

fn read_varint(f: &mut Fields<'_>) -> Result<u64, SegmentError> {
    let mut v = 0u64;
    for shift in 0..10 {
        let b = f.u8()?;
        v |= u64::from(b & 0x7f) << (shift * 7);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(f.error("overlong varint in pair list"))
}

/// Pair-list payload: `count:u64` then zigzag-varint deltas per pair.
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

fn decode_pairs(mut f: Fields<'_>) -> Result<Vec<(u32, u32)>, SegmentError> {
    // Each pair is at least two one-byte varints.
    let n = f.count(2)?;
    let mut pairs = Vec::with_capacity(n);
    let (mut pl, mut pr) = (0i64, 0i64);
    for _ in 0..n {
        let l = pl.wrapping_add(unzigzag(read_varint(&mut f)?));
        let r = pr.wrapping_add(unzigzag(read_varint(&mut f)?));
        let (Ok(l32), Ok(r32)) = (u32::try_from(l), u32::try_from(r)) else {
            return Err(f.error(format!("pair ({l}, {r}) out of u32 range")));
        };
        pairs.push((l32, r32));
        (pl, pr) = (l, r);
    }
    f.end()?;
    Ok(pairs)
}

/// Where checkpoints live: `save_bytes`/`load_bytes` may fail transiently
/// (I/O); callers retry under a [`magellan_faults::RetryPolicy`].
/// `load_bytes` returning `Ok(None)` means "no checkpoint yet" — a fresh
/// run.
pub trait CheckpointStore {
    /// Durably replace the stored checkpoint bytes.
    fn save_bytes(&mut self, data: &[u8]) -> Result<(), MagellanError>;
    /// Read back the stored checkpoint bytes, if any.
    fn load_bytes(&mut self) -> Result<Option<Vec<u8>>, MagellanError>;
    /// Discard any stored checkpoint.
    fn clear(&mut self) -> Result<(), MagellanError>;
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

    fn round_trip(ck: &Checkpoint) -> Checkpoint {
        let bytes = ck.to_bytes();
        assert!(bytes.starts_with(b"emckpt v3\0"));
        Checkpoint::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn blocked_round_trips() {
        let ck = Checkpoint::Blocked {
            candidates: vec![(0, 1), (2, 3), (7, 7)],
        };
        assert_eq!(ck.phase(), Phase::Blocking);
        assert_eq!(round_trip(&ck), ck);
    }

    #[test]
    fn done_round_trips() {
        let ck = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9)],
            n_candidates: 42,
        };
        assert_eq!(ck.phase(), Phase::Matching);
        assert_eq!(round_trip(&ck), ck);
        // Empty match set round-trips too.
        let ck = Checkpoint::Done {
            matches: vec![],
            n_candidates: 0,
        };
        assert_eq!(round_trip(&ck), ck);
    }

    /// Round trips, and the older formats — the `emckpt v1` text and the
    /// `emckpt v2` binary — are refused by name rather than misread.
    #[test]
    fn v2_round_trips_and_handshakes_with_v1() {
        // Deltas go negative when pairs are not sorted; zigzag handles it.
        let unsorted = Checkpoint::Blocked {
            candidates: vec![(9, 100), (0, 3), (u32::MAX, 0), (0, u32::MAX)],
        };
        assert_eq!(round_trip(&unsorted), unsorted);
        for (old, version) in [
            (
                &b"emckpt v1\nphase blocked\npairs 0\nend\n"[..],
                "emckpt v1",
            ),
            (
                &b"emckpt v2\0\x01\x01\0\0\0\0\x01\x02\x03\x04\x05\x06\x07\x08"[..],
                "emckpt v2",
            ),
        ] {
            let err = Checkpoint::from_bytes(old).unwrap_err();
            assert!(err.fatal(), "an old checkpoint must not be retried");
            let msg = err.to_string();
            assert!(
                msg.contains("bad magic") && msg.contains(&format!("found `{version}`")),
                "{msg}"
            );
        }
    }

    /// What the framing cannot vouch for: each file below is sealed by
    /// the codec, so only the phase and pair-list checks can refuse it.
    #[test]
    fn v2_corruption_matrix_is_fatal() {
        let ck = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9), (11, 13)],
            n_candidates: 42,
        };
        let bytes = ck.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).unwrap_err().fatal());
        }
        let fails = |segs: &[(u32, &[u8])], want: &str| {
            let err = Checkpoint::from_bytes(&segment::encode(MAGIC, segs)).unwrap_err();
            assert!(
                err.fatal() && err.to_string().contains(want),
                "expected `{want}`, got `{err}`"
            );
        };
        let done42 = [&[PHASE_DONE][..], &42u64.to_le_bytes()].concat();
        let done0 = [&[PHASE_DONE][..], &0u64.to_le_bytes()].concat();
        for (phase, count, varints, want) in [
            (&[0x7f][..], 0u64, &[][..], "unknown phase code 0x7f"),
            (&[PHASE_BLOCKED, 0], 0, &[], "trailing bytes"),
            (&[PHASE_DONE, 1], 0, &[], "short"),
            (&done42, 1, &[1, 2], "out of u32 range"),
            (&done42, 1, &[0x80; 11], "overlong varint"),
            (&done42, 2, &[2, 4], "count 2 does not fit"),
            (&done42, 1, &[2, 4, 0], "trailing bytes"),
            (&done42, u64::MAX, &[], "does not fit"),
            (
                &done0,
                3,
                &[2, 4, 0, 0, 0, 0],
                "3 matches out of 0 candidates",
            ),
        ] {
            let pairs = [&count.to_le_bytes()[..], varints].concat();
            fails(&[(SEG_PHASE, phase), (SEG_PAIRS, &pairs)], want);
        }
        fails(
            &[(SEG_PAIRS, &[0; 8]), (SEG_PHASE, &done42)],
            "expected segment 1",
        );
    }

    #[test]
    fn v2_torn_write_through_flaky_store_is_detected() {
        // A crash mid-save splices the new file's head onto the old
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
        assert_eq!(
            old.len(),
            new.len(),
            "same shape so the splice stays segment-valid"
        );
        let (phase, pairs) = {
            let mut r = SegmentReader::open(&new, MAGIC).unwrap();
            (
                r.expect(SEG_PHASE).unwrap().payload,
                r.expect(SEG_PAIRS).unwrap(),
            )
        };
        // Tear inside the pairs payload: keep the new phase segment and
        // first pair's deltas, splice in the old tail (last deltas, old
        // checksum, END).
        let cut = pairs.offset + 8 + 2;
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
        // Control: re-sealing the torn payload through the codec *would*
        // parse (into the wrong pairs) — the checksum is what catches
        // the tear.
        let torn_pairs = &torn[pairs.offset..pairs.offset + pairs.payload.len()];
        let resealed = segment::encode(MAGIC, &[(SEG_PHASE, phase), (SEG_PAIRS, torn_pairs)]);
        let wrong = Checkpoint::from_bytes(&resealed).unwrap();
        assert_ne!(wrong.to_bytes(), old);
        assert_ne!(wrong.to_bytes(), new);
    }

    #[test]
    fn mem_store_round_trips_and_clears() {
        let mut s = MemStore::new();
        assert!(s.load_bytes().unwrap().is_none());
        s.save_bytes(b"hello").unwrap();
        assert_eq!(s.load_bytes().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(s.raw_bytes(), Some(&b"hello"[..]));
        s.clear().unwrap();
        assert!(s.load_bytes().unwrap().is_none());
    }

    #[test]
    fn file_store_round_trips_and_survives_missing_file() {
        let dir = std::env::temp_dir().join(format!("magellan-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = FileStore::new(dir.join("run.emckpt"));
        assert!(s.load_bytes().unwrap().is_none());
        let ck = Checkpoint::Blocked {
            candidates: vec![(3, 4)],
        };
        s.save_bytes(&ck.to_bytes()).unwrap();
        let back = Checkpoint::from_bytes(&s.load_bytes().unwrap().unwrap()).unwrap();
        assert_eq!(back, ck);
        s.clear().unwrap();
        assert!(s.load_bytes().unwrap().is_none());
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
        let bytes = Checkpoint::Blocked { candidates: vec![] }.to_bytes();
        loop {
            match s.save_bytes(&bytes) {
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
        while s2.save_bytes(&bytes).is_err() {
            failures2 += 1;
        }
        assert_eq!(failures, failures2);
        // Load eventually works and returns what save stored.
        let loaded = loop {
            match s.load_bytes() {
                Ok(v) => break v,
                Err(e) => assert!(e.transient()),
            }
        };
        assert_eq!(loaded, Some(bytes));
    }
}
