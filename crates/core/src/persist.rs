//! Model checkpointing.
//!
//! The paper releases its pre-trained NetTAG so users can "easily generate
//! and fine-tune embeddings for their own netlist tasks" (footnote 1);
//! this module provides the same affordance: versioned binary checkpoints
//! of the full model (configuration, weights and Adam moments).
//!
//! # Format, version 2
//!
//! Integers are little-endian. Floats are stored as their raw IEEE-754
//! bits, little-endian — the wire protocol's convention — so every value,
//! NaN payloads, `±inf`, `-0.0` and subnormals included, round-trips bit
//! for bit.
//!
//! | bytes              | field                                                  |
//! |--------------------|--------------------------------------------------------|
//! | 8                  | magic `NTAGCKPT`                                       |
//! | 4                  | version, `u32` = 2                                     |
//! | 8 × 8              | `embed_dim` … `hops` of [`NetTagConfig`] as `u64`      |
//! | 4 + 8 + 8          | `temperature` (f32), `mask_rate` (f64), `seed` (u64)   |
//! | 4                  | `text_scale` (f32)                                     |
//! | per param          | `rows`, `cols` as `u32`, then `value`, `m`, `v`        |
//! | 8                  | FNV-1a ([`fnv1a`]) of every byte before it, `u64`      |
//!
//! The config fields follow their declaration order, and the params
//! follow [`Layer::params_mut`] order. Param keys are process-local and
//! are not stored: a load assigns fresh ones.
//!
//! Version 1 stored a ninth size, `graph_heads`, and the params of
//! TAGFormer's multi-head softmax attention; those weights do not fit
//! the linear-attention layer, so a version-1 file is rejected with a
//! [`CheckpointError::Format`] naming its version.
//!
//! One trailing checksum detects any single-byte change. Each FNV-1a step
//! `h ← (h ⊕ b) · P` multiplies by an odd `P`, a bijection modulo 2^64:
//! two files that differ in one byte reach that byte in the same state,
//! leave it in different states, and every later step maps different
//! states to different states. A change inside the trailer itself no
//! longer matches the unchanged body.

use crate::config::NetTagConfig;
use crate::nettag::NetTag;
use nettag_nn::{Layer, Tensor};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, Weak};

const MAGIC: &[u8; 8] = b"NTAGCKPT";
const VERSION: u32 = 2;
/// Magic, version, the eleven config fields and `text_scale`.
const HEADER_LEN: usize = 8 + 4 + 8 * 8 + 4 + 8 + 8 + 4;
const TRAILER_LEN: usize = 8;

/// Error saving or loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The file is not a valid checkpoint (or the model cannot be
    /// encoded as one); the payload says why.
    Format(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(e) => write!(f, "checkpoint format error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn format_error<T>(reason: impl Into<String>) -> Result<T, CheckpointError> {
    Err(CheckpointError::Format(reason.into()))
}

/// 64-bit FNV-1a over `bytes`.
///
/// The checkpoint checksum and the serving engine's expression-lane
/// sharding both use it; its value for given bytes never changes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes `model` in the version-2 layout, trailer included.
fn encode(model: &NetTag) -> Result<Vec<u8>, CheckpointError> {
    let c = &model.config;
    let mut out = Vec::with_capacity(HEADER_LEN + TRAILER_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    for size in [
        c.embed_dim,
        c.text_dim,
        c.text_layers,
        c.text_heads,
        c.max_tokens,
        c.graph_dim,
        c.graph_layers,
        c.hops,
    ] {
        out.extend_from_slice(&(size as u64).to_le_bytes());
    }
    out.extend_from_slice(&c.temperature.to_bits().to_le_bytes());
    out.extend_from_slice(&c.mask_rate.to_bits().to_le_bytes());
    out.extend_from_slice(&c.seed.to_le_bytes());
    out.extend_from_slice(&model.text_scale.to_bits().to_le_bytes());
    // `params_mut` is the one canonical walk; it needs `&mut`.
    let mut model = model.clone();
    for p in model.params_mut() {
        for dim in [p.value.rows, p.value.cols] {
            let Ok(dim) = u32::try_from(dim) else {
                return format_error(format!("param dimension {dim} exceeds u32"));
            };
            out.extend_from_slice(&dim.to_le_bytes());
        }
        for t in [&p.value, &p.m, &p.v] {
            out.extend(t.data.iter().flat_map(|x| x.to_bits().to_le_bytes()));
        }
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    Ok(out)
}

/// Bounds-checked little-endian reads over a checkpoint body.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let Some((head, rest)) = self.bytes.split_first_chunk::<N>() else {
            return format_error("file ends inside a field");
        };
        self.bytes = rest;
        Ok(*head)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.take().map(u64::from_le_bytes)
    }

    fn size(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v).or_else(|_| format_error(format!("size {v} exceeds usize")))
    }

    /// Overwrites `t`'s elements with the next `t.data.len()` floats.
    fn tensor(&mut self, t: &mut Tensor) -> Result<(), CheckpointError> {
        let n = t.data.len() * 4;
        if self.bytes.len() < n {
            return format_error("file ends inside a tensor");
        }
        let (data, rest) = self.bytes.split_at(n);
        for (x, b) in t.data.iter_mut().zip(data.chunks_exact(4)) {
            *x = f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
        self.bytes = rest;
        Ok(())
    }
}

/// Rejects a config [`NetTag::new`] would panic on. No size may exceed
/// the body that has to hold it, which also keeps the constructor's
/// width arithmetic from overflowing.
fn check_config(c: &NetTagConfig, body_len: usize) -> Result<(), CheckpointError> {
    let sizes = [
        c.embed_dim,
        c.text_dim,
        c.text_layers,
        c.text_heads,
        c.max_tokens,
        c.graph_dim,
        c.graph_layers,
    ];
    if let Some(s) = sizes.iter().find(|&&s| s > body_len) {
        return format_error(format!("config size {s} exceeds the {body_len}-byte body"));
    }
    let (dim, heads) = (c.text_dim, c.text_heads);
    if heads == 0 || dim % heads != 0 {
        return format_error(format!(
            "text width {dim} does not split into {heads} heads"
        ));
    }
    Ok(())
}

/// Decodes a whole checkpoint file. See the module doc for the layout.
fn decode(bytes: &[u8]) -> Result<NetTag, CheckpointError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return format_error(format!("file is {} bytes, too short", bytes.len()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
    let stored = u64::from_le_bytes(trailer.try_into().expect("trailer is 8 bytes"));
    if fnv1a(body) != stored {
        return format_error("checksum mismatch");
    }
    let mut r = Reader { bytes: body };
    if r.take()? != *MAGIC {
        return format_error("not a NetTAG checkpoint");
    }
    let version = r.u32()?;
    if version != VERSION {
        return format_error(format!("unsupported version {version}"));
    }
    // Struct-literal fields evaluate in source order: declaration order.
    let config = NetTagConfig {
        embed_dim: r.size()?,
        text_dim: r.size()?,
        text_layers: r.size()?,
        text_heads: r.size()?,
        max_tokens: r.size()?,
        graph_dim: r.size()?,
        graph_layers: r.size()?,
        hops: r.size()?,
        temperature: f32::from_bits(r.u32()?),
        mask_rate: f64::from_bits(r.u64()?),
        seed: r.u64()?,
    };
    let text_scale = f32::from_bits(r.u32()?);
    check_config(&config, body.len())?;
    let mut model = NetTag::new(config);
    model.text_scale = text_scale;
    for (i, p) in model.params_mut().into_iter().enumerate() {
        let shape = (r.u32()? as usize, r.u32()? as usize);
        let built = (p.value.rows, p.value.cols);
        if shape != built {
            return format_error(format!(
                "param {i}: stored shape {shape:?}, config builds {built:?}"
            ));
        }
        r.tensor(&mut p.value)?;
        r.tensor(&mut p.m)?;
        r.tensor(&mut p.v)?;
    }
    if !r.bytes.is_empty() {
        return format_error(format!("{} bytes past the last param", r.bytes.len()));
    }
    Ok(model)
}

/// Serializes [`save_checkpoint`] calls in this process: two savers of
/// one path share its staging name, so unserialized they would write one
/// inode and publish each other's half-written bytes.
static SAVE_LOCK: Mutex<()> = Mutex::new(());

/// Saves a pre-trained model to a binary checkpoint, **atomically**.
///
/// The checkpoint is written to a temporary file in the *same directory*
/// (rename across filesystems is not atomic), fsynced, and then renamed
/// over `path`; the directory is fsynced last so the rename itself
/// survives a crash. A crash — or an encoding failure — at any point
/// leaves either the complete old checkpoint or the complete new one on
/// disk, never a torn file: a serving engine pointed at `path` can
/// always [`load_checkpoint`] whatever is there. Saves within one
/// process are serialized, so concurrent savers of one path publish one
/// whole model each, the last rename winning.
///
/// # Errors
///
/// Returns [`CheckpointError`] on filesystem or encoding failure. A
/// failure before the rename leaves the previous contents of `path`
/// untouched and removes the temporary file; a failed directory fsync is
/// reported after the new checkpoint is already in place.
pub fn save_checkpoint(model: &NetTag, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let bytes = encode(model)?;
    let path = path.as_ref();
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."));
    // Name the temp file after the target (plus the pid, so savers in
    // other processes do not collide) so it lands on the same filesystem
    // and is identifiable.
    let tmp = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".tmp.{}", std::process::id()));
        dir.join(name)
    };
    // The lock guards no data, and `File::create` truncates whatever
    // staging file a panicked save left, so a poisoned lock is safe.
    let _save = SAVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let result = (|| -> Result<(), CheckpointError> {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        // Durability before visibility: the rename must not publish a
        // file whose bytes are still in the page cache only.
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        File::open(dir)?.sync_all()?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Loads a model from a binary checkpoint.
///
/// The file is read whole and checked before anything is allocated for
/// the model: its length, then its checksum, then its magic and version.
/// Only a file whose checksum matched has its config decoded and its
/// model built, so the trust boundary is the checksum: a corrupt or
/// truncated file is rejected, while a deliberately crafted file with a
/// valid checksum can at most request a model as large as its config
/// says. Every stored param shape must equal the shape the config
/// builds, and the params must end exactly at the trailer.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] when the file cannot be read and
/// [`CheckpointError::Format`] when it is not a valid checkpoint.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<NetTag, CheckpointError> {
    decode(&std::fs::read(path)?)
}

/// Loads a checkpoint into a shared immutable handle, deduplicated by
/// path: concurrent and repeated loads of the same file observe **one**
/// decode and share **one** weight buffer (`Arc::ptr_eq` holds), instead
/// of N serving threads each holding a private copy of the model.
///
/// The registry holds [`Weak`] references only — once every handle is
/// dropped the memory is freed, and a later load re-reads the file (so a
/// checkpoint overwritten on disk is picked up after its readers drain).
///
/// # Errors
///
/// Returns [`CheckpointError`] on filesystem failure or a rejected file.
pub fn load_checkpoint_shared(path: impl AsRef<Path>) -> Result<Arc<NetTag>, CheckpointError> {
    let registry = registry();
    // Canonicalize so `./model.ckpt` and an absolute spelling share.
    let path = path.as_ref();
    let key = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    // Fast path: a live handle exists. A panicking loader can't leave
    // the map torn (inserts are whole), so recover a poisoned guard
    // rather than wedging every later load.
    if let Some(model) = registry
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&key)
        .and_then(Weak::upgrade)
    {
        return Ok(model);
    }
    // Decode outside the lock; racing loaders may decode twice, but the
    // first to publish wins and the loser's copy is dropped — every
    // caller still ends up on one shared buffer.
    let model = Arc::new(load_checkpoint(path)?);
    let mut reg = registry.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(existing) = reg.get(&key).and_then(Weak::upgrade) {
        return Ok(existing);
    }
    reg.insert(key, Arc::downgrade(&model));
    Ok(model)
}

/// The process-wide path → weight-buffer registry behind
/// [`load_checkpoint_shared`] / [`reload_checkpoint_shared`].
fn registry() -> &'static Mutex<HashMap<PathBuf, Weak<NetTag>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Weak<NetTag>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Re-reads a checkpoint from disk **unconditionally** and republishes it
/// in the shared registry — the hot-swap path.
///
/// [`load_checkpoint_shared`] deduplicates by path, so while any reader
/// still holds the old handle it keeps returning the *old* weights even
/// after the file is overwritten. A serving engine swapping checkpoints
/// in place needs the opposite: read the file as it is *now*, hand back
/// a fresh buffer, and make subsequent shared loads of the same path see
/// the new weights. Readers holding the old `Arc` are unaffected (their
/// buffer stays alive until they drop it), so a swap never invalidates
/// in-flight work.
///
/// # Errors
///
/// Returns [`CheckpointError`] on filesystem failure or a rejected file;
/// the registry keeps its previous entry in that case.
pub fn reload_checkpoint_shared(path: impl AsRef<Path>) -> Result<Arc<NetTag>, CheckpointError> {
    let path = path.as_ref();
    let key = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let model = Arc::new(load_checkpoint(path)?);
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, Arc::downgrade(&model));
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetTagConfig;
    use nettag_netlist::{CellKind, Library, Netlist, Tag};

    fn example_netlist() -> Netlist {
        let mut n = Netlist::new("ck");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let g = n.add_gate("G", CellKind::Nand2, vec![a, b]);
        n.add_gate("y", CellKind::Output, vec![g]);
        n.validate().expect("valid")
    }

    #[test]
    fn checkpoint_roundtrip_preserves_embeddings() {
        let model = NetTag::new(NetTagConfig::tiny());
        let dir = std::env::temp_dir().join("nettag_ckpt_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("model.ckpt");
        save_checkpoint(&model, &path).expect("save");
        let loaded = load_checkpoint(&path).expect("load");
        let lib = Library::default();
        let n = example_netlist();
        let tag = Tag::from_netlist(&n, &lib, &model.tag_options());
        let e1 = model.embed_tag(&tag);
        let e2 = loaded.embed_tag(&tag);
        assert_eq!(e1.cls.data, e2.cls.data);
        assert_eq!(e1.nodes.data, e2.nodes.data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_reports_io_error() {
        let err = load_checkpoint("/definitely/not/here.ckpt").expect_err("must fail");
        assert!(matches!(err, CheckpointError::Io(_)));
        assert!(!err.to_string().is_empty());
    }
}
