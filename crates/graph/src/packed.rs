//! Delta-encoded, bit-packed adjacency for out-of-core graph scale.
//!
//! The flat [`crate::csr::LabelIndex`] stores 12 bytes per directed
//! adjacency entry per direction, plus a dense `(L+1)·n` slot table —
//! memory is the scale ceiling long before CPU is. This module trades a
//! little decode work for a ~4–7× smaller footprint:
//!
//! * per `(node, label)` the neighbor run is **sorted** and
//!   **delta-encoded**, then packed in blocks of up to 64 deltas with a
//!   per-block fixed bit width (a one-byte header per block);
//! * runs longer than one block carry a **skip table** of raw
//!   `(base value, byte offset)` entries, so point probes (`contains`)
//!   and galloping intersections decode one 64-entry block instead of
//!   the whole run;
//! * edge ids, when kept, ride in a parallel zigzag-delta stream —
//!   scale workloads that never consult edge identity can drop them at
//!   build time ([`PackOptions::edge_ids`]);
//! * everything — header, label names, offset arrays, run bytes — lives
//!   in **one contiguous little-endian byte blob** accessed through
//!   [`PackedView`], so an in-memory `Vec<u8>` and an mmap'd segment
//!   section decode through identical code, and a file image needs no
//!   deserialization step at all.
//!
//! Offsets into each data section are `u32` and every length that must
//! fit one goes through a checked conversion: overflow is a typed
//! [`GraphError::TooLarge`], never a silent wrap.
//!
//! ## Blob layout
//!
//! ```text
//! blob      := magic "KGQPIDX1" flags:u32 n_nodes:u32 n_labels:u32 n_edges:u64
//!              label_tab_off:u64 out_index_off:u64 out_data_off:u64
//!              in_index_off:u64 in_data_off:u64 total_len:u64
//!              label_tab out_index out_data [in_index in_data]
//! label_tab := (len:u32 utf8){n_labels}
//! *_index   := (n_nodes + 1) u32 byte offsets into *_data
//! *_data    := per node, ascending label: sub_run*
//! sub_run   := varint(label) varint(rest_len) rest
//! rest      := varint(count) [varint(neigh_len)] neigh [eids]
//! neigh     := varint(first) [varint(nblocks) (base:u32 off:u32){nblocks}] block*
//! block     := width:u8 ceil(len·width/8) bytes of LE bit-packed deltas
//! eids      := varint(first_eid) block*          (zigzag deltas, no skip)
//! ```
//!
//! `flags` bit 0 = edge-id streams present, bit 1 = inverse (incoming)
//! direction present. `neigh_len` frames the neighbor stream only when
//! an edge-id stream follows it; without edge ids the neighbor stream
//! runs to the end of `rest`, saving a varint on every run — at scale
//! the per-run framing, not the deltas, is where the bytes go.

use crate::csr::offset32;
use crate::error::GraphError;
use crate::labeled::LabeledGraph;
use crate::multigraph::Multigraph;

/// Leading magic of a packed adjacency blob.
pub const PACKED_MAGIC: &[u8; 8] = b"KGQPIDX1";

/// Deltas per bit-packed block; also the skip-table granularity.
pub const BLOCK: usize = 64;

const FLAG_EDGE_IDS: u32 = 1;
const FLAG_INVERSE: u32 = 2;
const HEADER_LEN: usize = 8 + 4 + 4 + 4 + 8 + 6 * 8;

/// Build-time choices for a packed index.
#[derive(Clone, Copy, Debug)]
pub struct PackOptions {
    /// Keep the per-run edge-id streams. RPQ label steps and BGP
    /// intersections never consult edge identity, so scale builds drop
    /// them; [`PackedLabelIndex::from_labeled`] keeps them for parity
    /// with the raw [`crate::csr::LabelIndex`].
    pub edge_ids: bool,
    /// Keep the incoming direction (needed for `ℓ⁻` steps).
    pub inverse: bool,
}

impl Default for PackOptions {
    fn default() -> Self {
        PackOptions {
            edge_ids: true,
            inverse: true,
        }
    }
}

// ---------------------------------------------------------------------
// varint + bit-packing primitives
// ---------------------------------------------------------------------

#[inline]
fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

#[inline]
fn bits_for(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// Appends `vals` at `width` bits each, little-endian bit order.
fn pack_bits(vals: &[u64], width: u8, buf: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    let mut acc: u128 = 0;
    let mut nbits = 0u32;
    for &v in vals {
        acc |= (v as u128) << nbits;
        nbits += width as u32;
        while nbits >= 8 {
            buf.push(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        buf.push(acc as u8);
    }
}

/// Decodes `count` values of `width` bits each, calling `f` on each.
#[inline]
fn unpack_bits(bytes: &[u8], width: u8, count: usize, mut f: impl FnMut(u64)) {
    if width == 0 {
        for _ in 0..count {
            f(0);
        }
        return;
    }
    debug_assert!(width <= 56, "block width {width} exceeds the decoder");
    let w = width as u32;
    let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    let mut acc = 0u64;
    let mut nbits = 0u32;
    let mut i = 0usize;
    for _ in 0..count {
        while nbits < w {
            acc |= (bytes[i] as u64) << nbits;
            i += 1;
            nbits += 8;
        }
        f(acc & mask);
        acc >>= w;
        nbits -= w;
    }
}

#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Encodes `deltas` as width-prefixed blocks of up to [`BLOCK`] values.
fn encode_blocks(deltas: &[u64], buf: &mut Vec<u8>) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(deltas.len().div_ceil(BLOCK));
    let start = buf.len();
    for chunk in deltas.chunks(BLOCK) {
        offsets.push((buf.len() - start) as u32);
        let width = chunk.iter().map(|&d| bits_for(d)).max().unwrap_or(0);
        buf.push(width);
        pack_bits(chunk, width, buf);
    }
    offsets
}

/// Encodes one sorted neighbor run (`count ≥ 1`): first value, optional
/// skip table, delta blocks.
fn encode_neighbors(values: &[u32], buf: &mut Vec<u8>) {
    write_varint(buf, values[0] as u64);
    if values.len() == 1 {
        return;
    }
    let deltas: Vec<u64> = values.windows(2).map(|w| (w[1] - w[0]) as u64).collect();
    let mut blocks = Vec::new();
    let offsets = encode_blocks(&deltas, &mut blocks);
    if offsets.len() > 1 {
        write_varint(buf, offsets.len() as u64);
        for (k, &off) in offsets.iter().enumerate() {
            // Base of block k = the absolute value preceding its first
            // delta, i.e. values[k·BLOCK].
            buf.extend_from_slice(&values[k * BLOCK].to_le_bytes());
            buf.extend_from_slice(&off.to_le_bytes());
        }
    }
    buf.extend_from_slice(&blocks);
}

/// Encodes the edge-id stream aligned with a neighbor run.
fn encode_eids(eids: &[u32], buf: &mut Vec<u8>) {
    write_varint(buf, eids[0] as u64);
    if eids.len() == 1 {
        return;
    }
    let deltas: Vec<u64> = eids
        .windows(2)
        .map(|w| zigzag(w[1] as i64 - w[0] as i64))
        .collect();
    let mut blocks = Vec::new();
    encode_blocks(&deltas, &mut blocks);
    buf.extend_from_slice(&blocks);
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// One direction's data section + index, built node-major.
struct DirBuilder {
    index: Vec<u32>,
    data: Vec<u8>,
}

impl DirBuilder {
    fn new(n_nodes: usize) -> Self {
        let mut index = Vec::with_capacity(n_nodes + 1);
        index.push(0);
        DirBuilder {
            index,
            data: Vec::new(),
        }
    }

    /// Appends one `(label, neighbors, eids)` sub-run for the current node.
    fn push_run(&mut self, label: u32, neighbors: &[u32], eids: Option<&[u32]>) {
        debug_assert!(!neighbors.is_empty());
        let mut rest = Vec::new();
        write_varint(&mut rest, neighbors.len() as u64);
        let mut neigh = Vec::new();
        encode_neighbors(neighbors, &mut neigh);
        if let Some(eids) = eids {
            write_varint(&mut rest, neigh.len() as u64);
            rest.extend_from_slice(&neigh);
            encode_eids(eids, &mut rest);
        } else {
            rest.extend_from_slice(&neigh);
        }
        write_varint(&mut self.data, label as u64);
        write_varint(&mut self.data, rest.len() as u64);
        self.data.extend_from_slice(&rest);
    }

    fn end_node(&mut self, what: &'static str) -> Result<(), GraphError> {
        self.index.push(offset32(self.data.len(), what)?);
        Ok(())
    }
}

/// A directed, labeled edge `(src, label, dst, edge id)` fed to the
/// packed builder. Label ids must be dense (`0..n_labels`).
pub type Quad = (u32, u32, u32, u32);

/// An owned packed label index: one contiguous blob (see the module
/// docs for the layout), plus the [`PackedView`] accessor over it.
#[derive(Clone, Debug)]
pub struct PackedLabelIndex {
    bytes: Vec<u8>,
}

impl PackedLabelIndex {
    /// Packs a [`LabeledGraph`] with edge ids and both directions —
    /// the drop-in, parity-checkable replacement for
    /// [`crate::csr::LabelIndex`]. Within each `(node, label)` run,
    /// entries are re-sorted by `(neighbor, edge)` (the raw index sorts
    /// by `(label, edge)`), so adjacency equality is per-run multiset
    /// equality.
    pub fn from_labeled(g: &LabeledGraph) -> Result<Self, GraphError> {
        let base = g.base();
        // Dense-number the edge labels in Sym order, exactly like
        // LabelIndex::build, so dense ids agree between the two.
        let mut used: Vec<u32> = base.edges().map(|e| g.edge_label(e).0).collect();
        used.sort_unstable();
        used.dedup();
        let labels: Vec<String> = used
            .iter()
            .map(|&s| g.consts().resolve(crate::sym::Sym(s)).to_owned())
            .collect();
        let dense = |s: u32| used.binary_search(&s).unwrap_or(0) as u32;
        let quads: Vec<Quad> = base
            .edges()
            .map(|e| {
                let (s, d) = base.endpoints(e);
                (s.0, dense(g.edge_label(e).0), d.0, e.0)
            })
            .collect();
        Self::from_quads(
            base.node_count() as u32,
            &labels,
            quads,
            PackOptions::default(),
        )
    }

    /// Packs a raw edge stream. `labels` names the dense label ids;
    /// every quad's label must be `< labels.len()` and every endpoint
    /// `< n_nodes`, otherwise a typed error is returned.
    pub fn from_quads(
        n_nodes: u32,
        labels: &[String],
        mut quads: Vec<Quad>,
        opts: PackOptions,
    ) -> Result<Self, GraphError> {
        let n_labels = offset32(labels.len(), "packed label table")?;
        offset32(quads.len(), "packed edge list")?;
        for &(s, l, d, _) in &quads {
            if s >= n_nodes || d >= n_nodes {
                return Err(GraphError::UnknownNode(format!(
                    "packed edge endpoint {} out of range (n = {n_nodes})",
                    if s >= n_nodes { s } else { d }
                )));
            }
            if l >= n_labels {
                return Err(GraphError::UnknownEdge(format!(
                    "packed edge label {l} out of range (L = {n_labels})"
                )));
            }
        }
        let n_edges = quads.len() as u64;

        let mut flags = 0u32;
        if opts.edge_ids {
            flags |= FLAG_EDGE_IDS;
        }
        if opts.inverse {
            flags |= FLAG_INVERSE;
        }

        // Out direction: sort by (src, label, dst, eid), emit per node.
        quads.sort_unstable();
        let out = build_direction(
            n_nodes,
            &quads,
            opts.edge_ids,
            |&(s, l, d, e)| (s, l, d, e),
            "packed out data",
        )?;
        // In direction: re-sort the same buffer by (dst, label, src, eid).
        let inv = if opts.inverse {
            quads.sort_unstable_by_key(|&(s, l, d, e)| (d, l, s, e));
            Some(build_direction(
                n_nodes,
                &quads,
                opts.edge_ids,
                |&(s, l, d, e)| (d, l, s, e),
                "packed in data",
            )?)
        } else {
            None
        };
        drop(quads);

        let mut label_tab = Vec::new();
        for name in labels {
            label_tab.extend_from_slice(&(name.len() as u32).to_le_bytes());
            label_tab.extend_from_slice(name.as_bytes());
        }

        let label_tab_off = HEADER_LEN as u64;
        let out_index_off = label_tab_off + label_tab.len() as u64;
        let out_data_off = out_index_off + 4 * (n_nodes as u64 + 1);
        let in_index_off = out_data_off + out.data.len() as u64;
        let (in_index_off, in_data_off, in_len) = match &inv {
            Some(inv) => (
                in_index_off,
                in_index_off + 4 * (n_nodes as u64 + 1),
                4 * (n_nodes as u64 + 1) + inv.data.len() as u64,
            ),
            None => (0, 0, 0),
        };
        let total_len = out_data_off + out.data.len() as u64 + in_len;

        let mut bytes = Vec::with_capacity(total_len as usize);
        bytes.extend_from_slice(PACKED_MAGIC);
        bytes.extend_from_slice(&flags.to_le_bytes());
        bytes.extend_from_slice(&n_nodes.to_le_bytes());
        bytes.extend_from_slice(&n_labels.to_le_bytes());
        bytes.extend_from_slice(&n_edges.to_le_bytes());
        bytes.extend_from_slice(&label_tab_off.to_le_bytes());
        bytes.extend_from_slice(&out_index_off.to_le_bytes());
        bytes.extend_from_slice(&out_data_off.to_le_bytes());
        bytes.extend_from_slice(&in_index_off.to_le_bytes());
        bytes.extend_from_slice(&in_data_off.to_le_bytes());
        bytes.extend_from_slice(&total_len.to_le_bytes());
        bytes.extend_from_slice(&label_tab);
        for &off in &out.index {
            bytes.extend_from_slice(&off.to_le_bytes());
        }
        bytes.extend_from_slice(&out.data);
        if let Some(inv) = inv {
            for &off in &inv.index {
                bytes.extend_from_slice(&off.to_le_bytes());
            }
            bytes.extend_from_slice(&inv.data);
        }
        debug_assert_eq!(bytes.len() as u64, total_len);
        Ok(PackedLabelIndex { bytes })
    }

    /// Wraps an existing blob after validating its structure.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, GraphError> {
        PackedView::parse(&bytes)?;
        Ok(PackedLabelIndex { bytes })
    }

    /// The accessor view.
    pub fn view(&self) -> PackedView<'_> {
        // The blob was validated (or built) by construction.
        match PackedView::parse(&self.bytes) {
            Ok(v) => v,
            Err(e) => panic!("owned packed blob failed to re-parse: {e}"),
        }
    }

    /// The raw blob (e.g. for embedding into a segment file).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the index, yielding the blob without a copy.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

fn build_direction(
    n_nodes: u32,
    quads: &[Quad],
    edge_ids: bool,
    key: impl Fn(&Quad) -> (u32, u32, u32, u32),
    what: &'static str,
) -> Result<DirBuilder, GraphError> {
    let mut dir = DirBuilder::new(n_nodes as usize);
    let mut neighbors = Vec::new();
    let mut eids = Vec::new();
    let mut i = 0usize;
    for v in 0..n_nodes {
        while i < quads.len() && key(&quads[i]).0 == v {
            let label = key(&quads[i]).1;
            neighbors.clear();
            eids.clear();
            while i < quads.len() {
                let (s, l, d, e) = key(&quads[i]);
                if s != v || l != label {
                    break;
                }
                neighbors.push(d);
                eids.push(e);
                i += 1;
            }
            dir.push_run(label, &neighbors, if edge_ids { Some(&eids) } else { None });
        }
        dir.end_node(what)?;
    }
    Ok(dir)
}

// ---------------------------------------------------------------------
// View + runs
// ---------------------------------------------------------------------

/// The integrity hook of a lazily verified [`PackedView`]
/// ([`PackedView::lazy`]): the owner of the bytes, such as an mmap'd
/// segment, checks each slice before the view decodes it.
pub trait BlobGuard: Sync {
    /// Whether `bytes`, a sub-slice of the blob, may be decoded. The
    /// owner verifies them on first touch (say, CRCs the chunks they lie
    /// in); `false` means they failed, and the owner has recorded why.
    fn admit(&self, bytes: &[u8]) -> bool;
    /// Records a structural defect the view found in admitted bytes.
    fn reject(&self, why: &str);
}

/// Borrowed accessor over a packed blob — works identically whether the
/// bytes live in an owned `Vec<u8>` or an mmap'd segment section.
#[derive(Clone, Copy)]
pub struct PackedView<'a> {
    flags: u32,
    n_nodes: u32,
    n_labels: u32,
    n_edges: u64,
    label_tab: &'a [u8],
    out_index: &'a [u8],
    out_data: &'a [u8],
    in_index: &'a [u8],
    in_data: &'a [u8],
    total_len: u64,
    /// Set for a lazily verified view: every run lookup has its bytes
    /// admitted here first.
    guard: Option<&'a dyn BlobGuard>,
}

impl std::fmt::Debug for PackedView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedView")
            .field("n_nodes", &self.n_nodes)
            .field("n_labels", &self.n_labels)
            .field("n_edges", &self.n_edges)
            .field("total_len", &self.total_len)
            .field("lazy", &self.guard.is_some())
            .finish()
    }
}

impl<'a> PackedView<'a> {
    /// Parses and structurally validates a blob: the header, the section
    /// bounds, and every node offset of both indexes.
    pub fn parse(b: &'a [u8]) -> Result<Self, GraphError> {
        let view = Self::sections(b)?;
        // Index offsets must be monotone and in-bounds; checking here
        // keeps the run accessors panic-free on any validated blob.
        for (index, data) in [
            (view.out_index, view.out_data),
            (view.in_index, view.in_data),
        ] {
            let mut prev = 0u32;
            for k in 0..index.len() / 4 {
                let off = u32::from_le_bytes([
                    index[4 * k],
                    index[4 * k + 1],
                    index[4 * k + 2],
                    index[4 * k + 3],
                ]);
                if off < prev || off as usize > data.len() {
                    return Err(GraphError::BadImage(
                        "non-monotone or out-of-bounds node offset".into(),
                    ));
                }
                prev = off;
            }
        }
        Ok(view)
    }

    /// Opens a blob whose bytes `guard` verifies on first touch. The
    /// header and the label table are admitted here. Each run lookup
    /// then admits its node's two index entries and its data range, and
    /// bounds-checks the range, in place of [`PackedView::parse`]'s walk
    /// over both indexes. A lookup whose bytes fail finds no run and
    /// leaves the reason with `guard`.
    pub fn lazy(b: &'a [u8], guard: &'a dyn BlobGuard) -> Result<Self, GraphError> {
        let failed = |what: &str| GraphError::BadImage(format!("{what} failed verification"));
        if !guard.admit(&b[..HEADER_LEN.min(b.len())]) {
            return Err(failed("packed header"));
        }
        let mut view = Self::sections(b)?;
        if !guard.admit(view.label_tab) {
            return Err(failed("packed label table"));
        }
        view.guard = Some(guard);
        Ok(view)
    }

    /// Reads the header and cuts the blob into its sections.
    fn sections(b: &'a [u8]) -> Result<Self, GraphError> {
        let bad = |m: &str| GraphError::BadImage(m.to_owned());
        if b.len() < HEADER_LEN || &b[..8] != PACKED_MAGIC {
            return Err(bad("missing KGQPIDX1 magic"));
        }
        let u32_at = |o: usize| u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]);
        let u64_at = |o: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[o..o + 8]);
            u64::from_le_bytes(w)
        };
        let flags = u32_at(8);
        let n_nodes = u32_at(12);
        let n_labels = u32_at(16);
        let n_edges = u64_at(20);
        let label_tab_off = u64_at(28);
        let out_index_off = u64_at(36);
        let out_data_off = u64_at(44);
        let in_index_off = u64_at(52);
        let in_data_off = u64_at(60);
        let total_len = u64_at(68);
        if total_len as usize > b.len() {
            return Err(bad("blob shorter than its declared length"));
        }
        let b = &b[..total_len as usize];
        let section = |from: u64, to: u64, name: &str| -> Result<&'a [u8], GraphError> {
            if from > to || to > total_len {
                return Err(GraphError::BadImage(format!(
                    "{name} section out of bounds"
                )));
            }
            Ok(&b[from as usize..to as usize])
        };
        let index_len = 4 * (n_nodes as u64 + 1);
        let has_in = flags & FLAG_INVERSE != 0;
        let label_tab = section(label_tab_off, out_index_off, "label table")?;
        let out_index = section(out_index_off, out_index_off + index_len, "out index")?;
        let out_data_end = if has_in { in_index_off } else { total_len };
        let out_data = section(out_data_off, out_data_end, "out data")?;
        let (in_index, in_data) = if has_in {
            (
                section(in_index_off, in_index_off + index_len, "in index")?,
                section(in_data_off, total_len, "in data")?,
            )
        } else {
            (&b[0..0], &b[0..0])
        };
        Ok(PackedView {
            flags,
            n_nodes,
            n_labels,
            n_edges,
            label_tab,
            out_index,
            out_data,
            in_index,
            in_data,
            total_len,
            guard: None,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n_nodes as usize
    }

    /// Number of distinct edge labels.
    pub fn label_count(&self) -> usize {
        self.n_labels as usize
    }

    /// Number of packed edges.
    pub fn edge_count(&self) -> u64 {
        self.n_edges
    }

    /// Whether edge-id streams were kept at build time.
    pub fn has_edge_ids(&self) -> bool {
        self.flags & FLAG_EDGE_IDS != 0
    }

    /// Whether the incoming direction was kept at build time.
    pub fn has_inverse(&self) -> bool {
        self.flags & FLAG_INVERSE != 0
    }

    /// Total blob size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.total_len
    }

    /// The dense label names, in id order.
    pub fn label_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.n_labels as usize);
        let mut pos = 0usize;
        for _ in 0..self.n_labels {
            let b = self.label_tab;
            let len = u32::from_le_bytes([b[pos], b[pos + 1], b[pos + 2], b[pos + 3]]) as usize;
            pos += 4;
            names.push(String::from_utf8_lossy(&b[pos..pos + len]).into_owned());
            pos += len;
        }
        names
    }

    /// Dense id of the label named `name`, if present.
    pub fn label_by_name(&self, name: &str) -> Option<u32> {
        self.label_names()
            .iter()
            .position(|n| n == name)
            .map(|i| i as u32)
    }

    #[inline]
    fn node_range(index: &[u8], v: u32) -> (usize, usize) {
        let at = |k: usize| {
            u32::from_le_bytes([
                index[4 * k],
                index[4 * k + 1],
                index[4 * k + 2],
                index[4 * k + 3],
            ]) as usize
        };
        (at(v as usize), at(v as usize + 1))
    }

    fn run_in(&self, index: &'a [u8], data: &'a [u8], v: u32, label: u32) -> Option<Run<'a>> {
        if v >= self.n_nodes {
            return None;
        }
        let node = match self.guard {
            None => {
                let (start, end) = Self::node_range(index, v);
                &data[start..end]
            }
            Some(guard) => Self::admit_node(guard, index, data, v)?,
        };
        let mut pos = 0usize;
        while pos < node.len() {
            let l = read_varint(node, &mut pos) as u32;
            let rest_len = read_varint(node, &mut pos) as usize;
            if l == label {
                return Some(Run::parse(&node[pos..pos + rest_len], self.has_edge_ids()));
            }
            if l > label {
                return None;
            }
            pos += rest_len;
        }
        None
    }

    /// The data of node `v` in a lazily verified view: its two index
    /// entries are admitted, the range they give is bounds-checked, and
    /// the range is admitted before anything in it is decoded.
    fn admit_node(
        guard: &dyn BlobGuard,
        index: &'a [u8],
        data: &'a [u8],
        v: u32,
    ) -> Option<&'a [u8]> {
        let at = 4 * v as usize;
        if !guard.admit(&index[at..at + 8]) {
            return None;
        }
        let (start, end) = Self::node_range(index, v);
        if start > end || end > data.len() {
            guard.reject("non-monotone or out-of-bounds node offset");
            return None;
        }
        let node = &data[start..end];
        guard.admit(node).then_some(node)
    }

    /// The outgoing run of `v` for dense label `label`, if non-empty.
    #[inline]
    pub fn out_run(&self, v: u32, label: u32) -> Option<Run<'a>> {
        self.run_in(self.out_index, self.out_data, v, label)
    }

    /// The incoming run of `v` for dense label `label`, if non-empty.
    #[inline]
    pub fn in_run(&self, v: u32, label: u32) -> Option<Run<'a>> {
        self.run_in(self.in_index, self.in_data, v, label)
    }

    /// Appends the sorted out-neighbors of `v` under `label` to `out`.
    #[inline]
    pub fn decode_out_into(&self, v: u32, label: u32, out: &mut Vec<u32>) {
        if let Some(run) = self.out_run(v, label) {
            run.decode_into(out);
        }
    }

    /// Appends the sorted in-neighbors of `v` under `label` to `out`.
    #[inline]
    pub fn decode_in_into(&self, v: u32, label: u32, out: &mut Vec<u32>) {
        if let Some(run) = self.in_run(v, label) {
            run.decode_into(out);
        }
    }

    /// Out-degree of `v` restricted to `label` (count only, no decode).
    pub fn out_degree(&self, v: u32, label: u32) -> usize {
        self.out_run(v, label).map_or(0, |r| r.len())
    }

    /// Appends `(neighbor, edge id)` pairs of the out run. Requires the
    /// blob to have been built with edge ids.
    pub fn decode_out_pairs_into(&self, v: u32, label: u32, out: &mut Vec<(u32, u32)>) {
        if let Some(run) = self.out_run(v, label) {
            run.decode_pairs_into(out);
        }
    }

    /// Appends `(neighbor, edge id)` pairs of the in run.
    pub fn decode_in_pairs_into(&self, v: u32, label: u32, out: &mut Vec<(u32, u32)>) {
        if let Some(run) = self.in_run(v, label) {
            run.decode_pairs_into(out);
        }
    }
}

/// One `(node, label)` run borrowed from a packed blob.
#[derive(Clone, Copy, Debug)]
pub struct Run<'a> {
    count: usize,
    first: u32,
    /// Raw `(base:u32, off:u32)` skip entries; empty for 1-block runs.
    skip: &'a [u8],
    blocks: &'a [u8],
    /// Edge-id section (first varint + blocks), if present.
    eids: Option<&'a [u8]>,
}

impl<'a> Run<'a> {
    fn parse(rest: &'a [u8], has_eids: bool) -> Run<'a> {
        let mut pos = 0usize;
        let count = read_varint(rest, &mut pos) as usize;
        let (neigh, eids) = if has_eids {
            let neigh_len = read_varint(rest, &mut pos) as usize;
            let neigh_end = pos + neigh_len;
            (&rest[pos..neigh_end], Some(&rest[neigh_end..]))
        } else {
            // Without an edge-id stream the neighbor bytes run to the
            // end of the sub-run; no inner framing needed.
            (&rest[pos..], None)
        };
        let mut np = 0usize;
        let first = read_varint(neigh, &mut np) as u32;
        let ndeltas = count - 1;
        let nblocks = ndeltas.div_ceil(BLOCK);
        let skip = if nblocks > 1 {
            let declared = read_varint(neigh, &mut np) as usize;
            debug_assert_eq!(declared, nblocks);
            let s = &neigh[np..np + 8 * declared];
            np += 8 * declared;
            s
        } else {
            &neigh[0..0]
        };
        Run {
            count,
            first,
            skip,
            blocks: &neigh[np..],
            eids,
        }
    }

    /// Number of entries in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the run holds no entries (never for stored runs).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Appends the run's sorted values to `out`.
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        out.reserve(self.count);
        out.push(self.first);
        let mut prev = self.first;
        let mut remaining = self.count - 1;
        let mut pos = 0usize;
        while remaining > 0 {
            let take = remaining.min(BLOCK);
            let width = self.blocks[pos];
            pos += 1;
            let nbytes = (take * width as usize).div_ceil(8);
            unpack_bits(&self.blocks[pos..pos + nbytes], width, take, |d| {
                prev = prev.wrapping_add(d as u32);
                out.push(prev);
            });
            pos += nbytes;
            remaining -= take;
        }
    }

    /// Appends `(neighbor, edge id)` pairs to `out`. The run must carry
    /// an edge-id stream (see [`PackOptions::edge_ids`]).
    pub fn decode_pairs_into(&self, out: &mut Vec<(u32, u32)>) {
        let eids = match self.eids {
            Some(e) => e,
            None => panic!("packed run has no edge-id stream"),
        };
        let start = out.len();
        self.decode_into_pairs_neighbors(out);
        let mut pos = 0usize;
        let mut prev = read_varint(eids, &mut pos) as u32;
        out[start].1 = prev;
        let mut remaining = self.count - 1;
        let mut k = start + 1;
        while remaining > 0 {
            let take = remaining.min(BLOCK);
            let width = eids[pos];
            pos += 1;
            let nbytes = (take * width as usize).div_ceil(8);
            unpack_bits(&eids[pos..pos + nbytes], width, take, |z| {
                prev = (prev as i64 + unzigzag(z)) as u32;
                out[k].1 = prev;
                k += 1;
            });
            pos += nbytes;
            remaining -= take;
        }
    }

    fn decode_into_pairs_neighbors(&self, out: &mut Vec<(u32, u32)>) {
        out.reserve(self.count);
        out.push((self.first, 0));
        let mut prev = self.first;
        let mut remaining = self.count - 1;
        let mut pos = 0usize;
        while remaining > 0 {
            let take = remaining.min(BLOCK);
            let width = self.blocks[pos];
            pos += 1;
            let nbytes = (take * width as usize).div_ceil(8);
            unpack_bits(&self.blocks[pos..pos + nbytes], width, take, |d| {
                prev = prev.wrapping_add(d as u32);
                out.push((prev, 0));
            });
            pos += nbytes;
            remaining -= take;
        }
    }

    #[inline]
    fn skip_entry(&self, k: usize) -> (u32, u32) {
        let b = self.skip;
        (
            u32::from_le_bytes([b[8 * k], b[8 * k + 1], b[8 * k + 2], b[8 * k + 3]]),
            u32::from_le_bytes([b[8 * k + 4], b[8 * k + 5], b[8 * k + 6], b[8 * k + 7]]),
        )
    }

    /// Point probe: does the run contain `x`? Runs longer than one
    /// block consult the skip table and decode a single 64-delta block;
    /// short runs decode linearly. This is the galloping-intersection
    /// primitive for wedge-closing joins.
    pub fn contains(&self, x: u32) -> bool {
        if x == self.first {
            return true;
        }
        if x < self.first || self.count == 1 {
            return false;
        }
        let nskip = self.skip.len() / 8;
        let (mut base, mut pos, mut take) = (self.first, 0usize, (self.count - 1).min(BLOCK));
        if nskip > 1 {
            // Largest block whose base is < x; bases are block-leading
            // absolute values, so equality is already a hit.
            let (mut lo, mut hi) = (0usize, nskip);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.skip_entry(mid).0 < x {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            if lo < nskip && self.skip_entry(lo).0 == x {
                return true;
            }
            if lo == 0 {
                // x below the first block's range start; only block 0
                // (whose base is `first`) can contain it.
                let (b, o) = self.skip_entry(0);
                base = b;
                pos = o as usize;
            } else {
                let k = lo - 1;
                let (b, o) = self.skip_entry(k);
                base = b;
                pos = o as usize;
                let covered = k * BLOCK;
                take = (self.count - 1 - covered).min(BLOCK);
            }
        }
        let width = self.blocks[pos];
        pos += 1;
        let nbytes = (take * width as usize).div_ceil(8);
        let mut found = false;
        let mut prev = base;
        unpack_bits(&self.blocks[pos..pos + nbytes], width, take, |d| {
            prev = prev.wrapping_add(d as u32);
            if prev == x {
                found = true;
            }
        });
        found
    }
}

// ---------------------------------------------------------------------
// PackedCsr — unlabeled convenience wrapper
// ---------------------------------------------------------------------

/// Packed counterpart of the unlabeled [`crate::csr::Csr`]: a packed
/// index with a single synthetic label holding every edge, edge ids
/// kept so `(edge, neighbor)` adjacency round-trips.
#[derive(Clone, Debug)]
pub struct PackedCsr {
    inner: PackedLabelIndex,
}

impl PackedCsr {
    /// Packs a [`Multigraph`]'s adjacency.
    pub fn build(g: &Multigraph) -> Result<Self, GraphError> {
        let quads: Vec<Quad> = g
            .edges()
            .map(|e| {
                let (s, d) = g.endpoints(e);
                (s.0, 0, d.0, e.0)
            })
            .collect();
        let inner = PackedLabelIndex::from_quads(
            g.node_count() as u32,
            &[String::new()],
            quads,
            PackOptions::default(),
        )?;
        Ok(PackedCsr { inner })
    }

    /// The underlying single-label view.
    pub fn view(&self) -> PackedView<'_> {
        self.inner.view()
    }

    /// Appends the sorted `(target, edge)` pairs of `v` to `out`.
    pub fn out_into(&self, v: u32, out: &mut Vec<(u32, u32)>) {
        self.view().decode_out_pairs_into(v, 0, out);
    }

    /// Appends the sorted `(source, edge)` pairs of `v` to `out`.
    pub fn in_into(&self, v: u32, out: &mut Vec<(u32, u32)>) {
        self.view().decode_in_pairs_into(v, 0, out);
    }

    /// Blob size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.inner.as_bytes().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{Csr, LabelIndex};
    use crate::generate::gnm_labeled;

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn bitpack_round_trips_all_widths() {
        for width in 0u8..=56 {
            let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
            let vals: Vec<u64> = (0..129u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) & mask)
                .collect();
            let mut buf = Vec::new();
            pack_bits(&vals, width, &mut buf);
            let mut got = Vec::new();
            unpack_bits(&buf, width, vals.len(), |v| got.push(v));
            assert_eq!(got, vals, "width {width}");
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for d in [0i64, 1, -1, 5, -5, i32::MAX as i64, -(i32::MAX as i64)] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    fn decode_run_bytes(values: &[u32]) -> Vec<u32> {
        let mut dir = DirBuilder::new(1);
        dir.push_run(0, values, None);
        dir.end_node("test").unwrap();
        let mut pos = 0usize;
        let _label = read_varint(&dir.data, &mut pos);
        let rest_len = read_varint(&dir.data, &mut pos) as usize;
        let run = Run::parse(&dir.data[pos..pos + rest_len], false);
        let mut out = Vec::new();
        run.decode_into(&mut out);
        out
    }

    #[test]
    fn runs_round_trip_across_block_boundaries() {
        for n in [1usize, 2, 63, 64, 65, 128, 129, 200, 1000] {
            let values: Vec<u32> = (0..n as u32).map(|i| i * 37 + (i % 3)).collect();
            assert_eq!(decode_run_bytes(&values), values, "n = {n}");
        }
        // Duplicates (parallel edges) → zero deltas.
        let values = vec![5u32; 100];
        assert_eq!(decode_run_bytes(&values), values);
    }

    #[test]
    fn contains_agrees_with_decode() {
        let values: Vec<u32> = (0..500u32).map(|i| i * 13 + (i % 7)).collect();
        let mut dir = DirBuilder::new(1);
        dir.push_run(0, &values, None);
        dir.end_node("test").unwrap();
        let mut pos = 0usize;
        read_varint(&dir.data, &mut pos);
        let rest_len = read_varint(&dir.data, &mut pos) as usize;
        let run = Run::parse(&dir.data[pos..pos + rest_len], false);
        for x in 0..7000u32 {
            assert_eq!(
                run.contains(x),
                values.binary_search(&x).is_ok(),
                "probe {x}"
            );
        }
    }

    #[test]
    fn packed_matches_raw_label_index_on_a_generated_graph() {
        let g = gnm_labeled(60, 400, &["t"], &["p", "q", "r"], 11);
        let raw = LabelIndex::build(&g);
        let packed = PackedLabelIndex::from_labeled(&g).unwrap();
        let view = packed.view();
        assert_eq!(view.node_count(), g.node_count());
        assert_eq!(view.edge_count(), g.edge_count() as u64);
        let names = view.label_names();
        for v in 0..g.node_count() as u32 {
            for (l, name) in names.iter().enumerate() {
                let sym = g.sym(name).unwrap();
                let mut got: Vec<(u32, u32)> = Vec::new();
                view.decode_out_pairs_into(v, l as u32, &mut got);
                let mut want: Vec<(u32, u32)> = raw
                    .out_with_label(crate::multigraph::NodeId(v), sym)
                    .iter()
                    .map(|&(_, e, d)| (d.0, e.0))
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "out v={v} l={name}");
                let mut got: Vec<(u32, u32)> = Vec::new();
                view.decode_in_pairs_into(v, l as u32, &mut got);
                let mut want: Vec<(u32, u32)> = raw
                    .in_with_label(crate::multigraph::NodeId(v), sym)
                    .iter()
                    .map(|&(_, e, s)| (s.0, e.0))
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "in v={v} l={name}");
            }
        }
    }

    #[test]
    fn packed_csr_matches_raw_csr() {
        let g = gnm_labeled(40, 220, &["t"], &["p"], 3);
        let csr = Csr::build(g.base());
        let packed = PackedCsr::build(g.base()).unwrap();
        for v in 0..g.node_count() as u32 {
            let node = crate::multigraph::NodeId(v);
            let mut got = Vec::new();
            packed.out_into(v, &mut got);
            let mut want: Vec<(u32, u32)> =
                csr.out(node).iter().map(|&(e, d)| (d.0, e.0)).collect();
            want.sort_unstable();
            assert_eq!(got, want, "out v={v}");
            let mut got = Vec::new();
            packed.in_into(v, &mut got);
            let mut want: Vec<(u32, u32)> =
                csr.inc(node).iter().map(|&(e, s)| (s.0, e.0)).collect();
            want.sort_unstable();
            assert_eq!(got, want, "in v={v}");
        }
    }

    #[test]
    fn blob_survives_serialization_round_trip() {
        let g = gnm_labeled(30, 150, &["t"], &["a", "b"], 5);
        let packed = PackedLabelIndex::from_labeled(&g).unwrap();
        let bytes = packed.as_bytes().to_vec();
        let re = PackedLabelIndex::from_bytes(bytes).unwrap();
        let (a, b) = (packed.view(), re.view());
        assert_eq!(a.edge_count(), b.edge_count());
        let mut x = Vec::new();
        let mut y = Vec::new();
        for v in 0..a.node_count() as u32 {
            for l in 0..a.label_count() as u32 {
                x.clear();
                y.clear();
                a.decode_out_into(v, l, &mut x);
                b.decode_out_into(v, l, &mut y);
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn truncated_or_corrupt_blobs_are_rejected() {
        let g = gnm_labeled(10, 30, &["t"], &["a"], 1);
        let packed = PackedLabelIndex::from_labeled(&g).unwrap();
        let bytes = packed.as_bytes();
        assert!(PackedView::parse(&bytes[..HEADER_LEN - 1]).is_err());
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xff;
        assert!(PackedView::parse(&bad).is_err());
        // Truncating the payload under the declared length must fail.
        assert!(PackedView::parse(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn edge_id_free_blobs_are_smaller() {
        let g = gnm_labeled(100, 2000, &["t"], &["a", "b"], 9);
        let with = PackedLabelIndex::from_labeled(&g).unwrap();
        let base = g.base();
        let used: Vec<u32> = {
            let mut u: Vec<u32> = base.edges().map(|e| g.edge_label(e).0).collect();
            u.sort_unstable();
            u.dedup();
            u
        };
        let quads: Vec<Quad> = base
            .edges()
            .map(|e| {
                let (s, d) = base.endpoints(e);
                let l = used.binary_search(&g.edge_label(e).0).unwrap() as u32;
                (s.0, l, d.0, e.0)
            })
            .collect();
        let labels: Vec<String> = used
            .iter()
            .map(|&s| g.consts().resolve(crate::sym::Sym(s)).to_owned())
            .collect();
        let without = PackedLabelIndex::from_quads(
            base.node_count() as u32,
            &labels,
            quads,
            PackOptions {
                edge_ids: false,
                inverse: true,
            },
        )
        .unwrap();
        assert!(without.as_bytes().len() < with.as_bytes().len());
        // Neighbor decode agrees regardless of the edge-id stream.
        let (a, b) = (with.view(), without.view());
        let mut x = Vec::new();
        let mut y = Vec::new();
        for v in 0..a.node_count() as u32 {
            for l in 0..a.label_count() as u32 {
                x.clear();
                y.clear();
                a.decode_out_into(v, l, &mut x);
                b.decode_out_into(v, l, &mut y);
                assert_eq!(x, y);
            }
        }
    }
}
