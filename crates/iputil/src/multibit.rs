//! The frozen flattened multibit LPM engine (Poptrie/DXR-style) that
//! answers every [`LpmTable`](crate::LpmTable) lookup.
//!
//! # Layout
//!
//! The table's sorted prefix map stays the *mutable authority*;
//! `FrozenLpm` is built from its entries (in `(key, plen)` order) into an
//! immutable lookup structure optimised for exactly one thing: resolving
//! addresses against a table that is not changing. The table rebuilds it
//! lazily on the first lookup after a mutation.
//!
//! * **Direct root table** — the first [`Bits::ROOT_BITS`] (16) address bits
//!   index a `2^16`-entry array whose slots hold either a final result id or
//!   a tagged multibit-node index. Prefixes shorter than the root stride are
//!   *leaf-pushed*: painted over every slot they cover, deepest-wins, so a
//!   root hit already carries the correct fallback (the DIR-24-8 trick,
//!   done once at build time).
//! * **Stride-6 popcount nodes** — below the root, each node consumes the
//!   next 6 address bits. A node is two `u64` bitmaps plus two base indices:
//!   `vector` marks which of the 64 chunks continue into a child node, and
//!   children live contiguously at `base_children + popcount(vector below
//!   chunk)` — the Poptrie compression. Chunks that *don't* continue resolve
//!   to a leaf-pushed result; consecutive equal results are run-length
//!   collapsed via `leafvec` (a bit marks each run start), and the result id
//!   lives at `base_leaves + popcount(leafvec through chunk) - 1`.
//! * **Path-compressed skips** — a node whose subtree agrees on a run of
//!   address bits (the usual shape of sparse tables: one `/48` alone under
//!   a root slot) verifies the whole run with a single 64-bit compare
//!   (`skip_key`) instead of walking a chain of single-child stride levels;
//!   a mismatch resolves to the covering result from above. Subtrees that
//!   collapse to a single result are stored as *uniform* nodes with the
//!   result id inline, skipping the leaf-array load entirely.
//!
//! Leaf-pushing means the longest match is always resolved *downward*: a
//! lookup is a short loop of `bitmap → popcount-rank → array index` steps
//! over three dense arrays, never backtracking and never chasing per-prefix
//! heap nodes. A lone IPv6 /48 resolves in 1 root load + 1 uniform node +
//! 1 result row, while dense subtrees (a routing table's sequential
//! allocations) resolve in stride-6 hops over arrays small enough to stay
//! cache-hot; a 100k-prefix RIB flattens to a few MB of contiguous memory.
//!
//! Tables of at most [`SMALL_MAX`] entries (a residence router's LAN set,
//! a NAT64 prefix) build to a sorted linear scan and never allocate the
//! root table.
//!
//! # Telemetry
//!
//! Every build bumps the `lpm.rebuilds` counter. Builds that produce the
//! root-table representation (in practice: the RIB) also record a
//! top-level `lpm-compile` span and raise the `lpm.frozen_nodes` and
//! `lpm.frozen_bytes` gauges to their per-table high-water marks, so the
//! many small per-day LAN and NAT64 tables add no spans.
//!
//! # Batched lookups, prefetch, and the memo
//!
//! `FrozenLpm::longest_match_many` keeps the direct-mapped duplicate memo
//! in front (hot CDN addresses resolved by thousands of FQDNs cost one
//! walk), but the memo now *bypasses itself* when a probe window over the
//! head of the batch observes a hit rate below [`MEMO_BYPASS`]'s threshold —
//! decided deterministically from batch contents alone, so attribution
//! output stays byte-identical. Bypassed (and memo-missing) tails resolve
//! through an interleaved walker: `LANES` (16) addresses advance one node level
//! per round, issuing a software prefetch for each lane's next node, so the
//! DRAM latency of up to 8 independent walks overlaps instead of
//! serialising. This is where the batch path wins on *unique*-address
//! batches (long-tail attribution), which the memo alone used to tax.
//!
//! ```
//! use iputil::Lpm4;
//! let mut rib: Lpm4<&str> = Lpm4::new();
//! rib.insert("10.0.0.0/8".parse().unwrap(), "ten");
//! rib.insert("10.9.0.0/16".parse().unwrap(), "ten-nine");
//! // Scalar and batched lookups run on the same frozen build.
//! let addrs: Vec<std::net::Ipv4Addr> = vec!["10.9.4.4".parse().unwrap(); 3];
//! let (p, v) = rib.longest_match(addrs[0]).unwrap();
//! assert_eq!((p.to_string().as_str(), *v), ("10.9.0.0/16", "ten-nine"));
//! assert!(rib.longest_match_many(&addrs).iter().all(|r| r == &Some((p, v))));
//! assert_eq!(rib.values_many(&addrs), vec![Some(&"ten-nine"); 3]);
//! ```

use crate::trie::Bits;
use std::collections::BTreeMap;

/// Bits consumed per multibit node below the root table.
const STRIDE: u8 = 6;

/// Entry count up to which a table builds to a linear scan: a handful of
/// compares beats a root-table load at these sizes, and the `2^ROOT_BITS`
/// root array is never allocated.
pub const SMALL_MAX: usize = 12;

/// "No result" marker: an untagged entry equal to this means no covering
/// prefix exists. Tables are limited to `2^31 - 1` results/nodes (a full
/// IPv4 routing table is ~1M).
const RES_NONE: u32 = 0x7fff_ffff;

/// High bit tagging a root/walk entry as a multibit-node index rather than
/// a final result id.
const NODE_TAG: u32 = 1 << 31;

/// Interleaved walker width for the batched path: enough independent walks
/// in flight to saturate the core's outstanding-miss capacity (line-fill
/// buffers), few enough that the lane state stays in L1.
const LANES: usize = 16;

/// Memo bypass policy: probe the first `WINDOW` batch entries through the
/// memo; if fewer than `WINDOW / DIVISOR` hit, the remainder of the batch
/// skips the memo entirely. Both the decision and the output are pure
/// functions of the batch contents.
pub const MEMO_BYPASS: (usize, usize) = (256, 8);

/// One flattened multibit node (40 bytes): chunk-occupancy bitmaps, base
/// indices into the contiguous child and leaf arrays, and the node's
/// path-compression run (`skip` address bits verified against `skip_key`
/// before the stride chunk is consumed).
///
/// Two encodings ride on the bitmaps:
/// * `vector == 0 && leafvec == 0` — a *uniform* node: every address that
///   survives the skip check resolves to the result id stored directly in
///   `base_leaves` (no leaf-array load). This is the shape every
///   path-compressed lone prefix collapses to.
/// * otherwise — the regular Poptrie node described on the fields.
#[derive(Debug, Clone, Copy, Default)]
struct MbNode {
    /// Bit `c` set ⇒ chunk `c` continues into child node
    /// `base_children + popcount(vector & (bits below c))`.
    vector: u64,
    /// Bit `c` set ⇒ chunk `c` starts a new leaf run; the run's result id is
    /// `leaves[base_leaves + popcount(leafvec & (bits through c)) - 1]`.
    leafvec: u64,
    /// The `skip` address bits at this node's depth, right-aligned — every
    /// prefix below this node agrees on them, so one compare replaces a
    /// chain of single-child stride levels (classic path compression,
    /// carried over from the radix trie so sparse subtrees stay O(1) loads).
    skip_key: u64,
    /// First child node index (children of one node are contiguous).
    base_children: u32,
    /// First leaf-run slot in the shared leaf array (or the inline result
    /// id when the node is uniform — see the type docs).
    base_leaves: u32,
    /// Result id when the skip compare fails: the best match covering this
    /// subtree from above (`RES_NONE` when nothing covers it).
    miss: u32,
    /// Number of address bits `skip_key` verifies (0 = no compression).
    skip: u8,
}

#[derive(Debug, Clone)]
enum Repr<K> {
    /// Sorted `(key, plen, result id)` linear scan — tables of at most
    /// [`SMALL_MAX`] entries never pay for the root array.
    Small(Vec<(K, u8, u32)>),
    Table {
        /// `2^ROOT_BITS` entries: result id, or `NODE_TAG | node index`.
        root: Vec<u32>,
        nodes: Vec<MbNode>,
        /// Run-length-collapsed leaf result ids, shared across nodes.
        leaves: Vec<u32>,
    },
}

/// An immutable, flattened multibit LPM table built from a sorted prefix
/// map. Mutation happens on the map, followed by a fresh build.
#[derive(Debug, Clone)]
pub(crate) struct FrozenLpm<K: Bits, V> {
    repr: Repr<K>,
    /// `(plen, value)` per stored prefix, indexed by result id.
    results: Vec<(u8, V)>,
}

impl<K: Bits, V: Clone> FrozenLpm<K, V> {
    /// Build the flattened layout from the map's entries. Cost is
    /// O(prefixes · WIDTH/STRIDE) plus the `2^ROOT_BITS` root array.
    pub(crate) fn build(map: &BTreeMap<(K, u8), V>) -> FrozenLpm<K, V> {
        obs::counter_add("lpm.rebuilds", 1);
        assert!(
            map.len() < RES_NONE as usize,
            "FrozenLpm supports < 2^31 - 1 prefixes"
        );
        let results: Vec<(u8, V)> = map
            .iter()
            .map(|(&(_, plen), v)| (plen, v.clone()))
            .collect();
        // Map order is (key, plen) order — `build_table` relies on it
        // (shallow prefixes precede the deeper entries they cover).
        let entries: Vec<(K, u8, u32)> = map
            .keys()
            .zip(0..)
            .map(|(&(key, plen), id)| (key, plen, id))
            .collect();
        if entries.len() <= SMALL_MAX {
            return FrozenLpm {
                repr: Repr::Small(entries),
                results,
            };
        }
        // A lazy build runs inside whichever lookup comes first, and that
        // call site depends on the thread layout: record it at the root.
        let _root = obs::enter_root();
        let _span = obs::span!("lpm-compile");
        let frozen = FrozenLpm {
            repr: build_table::<K>(&entries),
            results,
        };
        obs::gauge_max("lpm.frozen_nodes", frozen.node_count() as u64);
        obs::gauge_max("lpm.frozen_bytes", frozen.heap_bytes() as u64);
        frozen
    }
}

impl<K: Bits, V> FrozenLpm<K, V> {
    /// Flattened multibit nodes (0 in small/linear-scan representation) —
    /// the footprint metric next to [`FrozenLpm::heap_bytes`].
    pub fn node_count(&self) -> usize {
        match &self.repr {
            Repr::Small(_) => 0,
            Repr::Table { nodes, .. } => nodes.len(),
        }
    }

    /// Heap footprint of the lookup arrays and results, in bytes.
    pub fn heap_bytes(&self) -> usize {
        let repr = match &self.repr {
            Repr::Small(entries) => std::mem::size_of_val(entries.as_slice()),
            Repr::Table {
                root,
                nodes,
                leaves,
            } => {
                std::mem::size_of_val(root.as_slice())
                    + std::mem::size_of_val(nodes.as_slice())
                    + std::mem::size_of_val(leaves.as_slice())
            }
        };
        repr + std::mem::size_of_val(self.results.as_slice())
    }

    /// Resolve one address to its result id (`RES_NONE` = no match).
    #[inline]
    fn lookup_id(&self, addr: K) -> u32 {
        match &self.repr {
            Repr::Small(entries) => {
                let mut best = RES_NONE;
                let mut best_len = 0u8;
                for &(key, plen, id) in entries {
                    if addr.truncate(plen) == key && (best == RES_NONE || plen >= best_len) {
                        best = id;
                        best_len = plen;
                    }
                }
                best
            }
            Repr::Table {
                root,
                nodes,
                leaves,
            } => {
                let mut entry = root[addr.root_slot()];
                let mut depth = K::ROOT_BITS;
                while entry & NODE_TAG != 0 {
                    let node = &nodes[(entry & !NODE_TAG) as usize];
                    entry = walk_step(node, leaves, addr, &mut depth);
                }
                entry
            }
        }
    }

    #[inline]
    fn result(&self, id: u32) -> Option<(u8, &V)> {
        if id == RES_NONE {
            return None;
        }
        let (plen, value) = &self.results[id as usize];
        Some((*plen, value))
    }

    #[inline]
    fn value(&self, id: u32) -> Option<&V> {
        if id == RES_NONE {
            return None;
        }
        Some(&self.results[id as usize].1)
    }

    /// Longest-prefix-match: `(plen, &value)` of the most specific stored
    /// prefix covering `addr`.
    #[inline]
    pub fn longest_match(&self, addr: K) -> Option<(u8, &V)> {
        obs::counter_add("lpm.frozen_lookups", 1);
        self.result(self.lookup_id(addr))
    }

    /// Batched longest-prefix-match preserving input order: the duplicate
    /// memo in front (with deterministic bypass — see [`MEMO_BYPASS`]),
    /// interleaved prefetching walks behind it.
    pub fn longest_match_many(&self, addrs: &[K]) -> Vec<Option<(u8, &V)>> {
        obs::counter_add("lpm.frozen_lookups", addrs.len() as u64);
        memoized_batch(
            addrs,
            |addr| self.result(self.lookup_id(addr)),
            |rest, out| self.bulk_append(rest, out, |id| self.result(id)),
        )
    }

    /// Batched value-only lookup (no prefix-length/`Prefix` materialisation)
    /// — the slim path attribution pipelines run on, where only the mapped
    /// value matters and every extra per-record map pass shows up at
    /// 200k-records-per-day scale. Same memo, bypass, and interleaved walks
    /// as [`FrozenLpm::longest_match_many`]; same answers, minus the plen.
    pub fn values_many(&self, addrs: &[K]) -> Vec<Option<&V>> {
        obs::counter_add("lpm.frozen_lookups", addrs.len() as u64);
        memoized_batch(
            addrs,
            |addr| self.value(self.lookup_id(addr)),
            |rest, out| self.bulk_append(rest, out, |id| self.value(id)),
        )
    }

    /// Resolve `addrs` with [`LANES`] interleaved walks: every lane
    /// advances one node level per round and prefetches its next node, so
    /// independent cache misses overlap. Resolved ids are materialised
    /// through `map` (full `(plen, value)` rows or bare values).
    fn bulk_append<R, M>(&self, addrs: &[K], out: &mut Vec<R>, map: M)
    where
        M: Fn(u32) -> R,
    {
        let (root, nodes, leaves) = match &self.repr {
            // Small tables are L1-resident linear scans — nothing to hide.
            Repr::Small(_) => {
                out.extend(addrs.iter().map(|&a| map(self.lookup_id(a))));
                return;
            }
            Repr::Table {
                root,
                nodes,
                leaves,
            } => (root, nodes, leaves),
        };
        for group in addrs.chunks(LANES) {
            let mut entry = [RES_NONE; LANES];
            let mut depth = [K::ROOT_BITS; LANES];
            for (lane, &addr) in group.iter().enumerate() {
                entry[lane] = root[addr.root_slot()];
                if entry[lane] & NODE_TAG != 0 {
                    prefetch(nodes, (entry[lane] & !NODE_TAG) as usize);
                }
            }
            loop {
                let mut walking = false;
                for (lane, &addr) in group.iter().enumerate() {
                    if entry[lane] & NODE_TAG == 0 {
                        continue;
                    }
                    walking = true;
                    let node = &nodes[(entry[lane] & !NODE_TAG) as usize];
                    let next = walk_step(node, leaves, addr, &mut depth[lane]);
                    if next & NODE_TAG != 0 {
                        prefetch(nodes, (next & !NODE_TAG) as usize);
                    } else if next != RES_NONE {
                        // Lane resolved: start pulling its result row now so
                        // the `results[id]` reads at flush time are warm.
                        prefetch(&self.results, next as usize);
                    }
                    entry[lane] = next;
                }
                if !walking {
                    break;
                }
            }
            out.extend(entry[..group.len()].iter().map(|&id| map(id)));
        }
    }
}

/// One full node visit: verify the path-compression run, resolve uniform
/// nodes inline, otherwise branch into the child for the next stride chunk
/// or resolve the covering leaf run. Advances `depth` past the consumed
/// bits (skip + stride).
#[inline(always)]
fn walk_step<K: Bits>(node: &MbNode, leaves: &[u32], addr: K, depth: &mut u8) -> u32 {
    if node.skip > 0 {
        if addr.bits_at(*depth, node.skip) != node.skip_key {
            // Diverged inside the compressed run: nothing below can match,
            // the answer is whatever covered this subtree from above.
            return node.miss;
        }
        *depth += node.skip;
    }
    if node.vector == 0 && node.leafvec == 0 {
        // Uniform node: one result covers the whole (post-skip) subtree.
        return node.base_leaves;
    }
    let stride = (K::WIDTH - *depth).min(STRIDE);
    let chunk = addr.chunk(*depth, stride);
    *depth += stride;
    if node.vector >> chunk & 1 == 1 {
        let rank = (node.vector & ((1u64 << chunk) - 1)).count_ones();
        NODE_TAG | (node.base_children + rank)
    } else {
        // Bits 0..=chunk; `1 << 63 << 1` wraps to 0, giving all-ones.
        let through = ((1u64 << chunk) << 1).wrapping_sub(1);
        let rank = (node.leafvec & through).count_ones() - 1;
        leaves[(node.base_leaves + rank) as usize]
    }
}

/// Best-effort prefetch of `slice[idx]` into L1. A hint only: lookups never
/// depend on it, and non-x86_64 targets compile it away.
#[inline(always)]
fn prefetch<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(entry) = slice.get(idx) {
        // SAFETY: `entry` is a valid reference; PREFETCHT0 has no
        // architectural effect beyond cache-line movement.
        #[allow(unsafe_code)]
        unsafe {
            std::arch::x86_64::_mm_prefetch(
                entry as *const T as *const i8,
                std::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, idx);
}

/// Shared batched-lookup front: a direct-mapped duplicate memo with a
/// deterministic low-hit-rate bypass. `scalar` answers one address;
/// `bulk` appends answers for a slice (the engine's fastest bypass path).
///
/// The memo probe runs over the first [`MEMO_BYPASS`]`.0` addresses; if
/// hits stay under `window / `[`MEMO_BYPASS`]`.1`, the batch is
/// duplicate-poor and the rest skips the memo. Output and the decision
/// depend only on the batch contents, so results stay byte-identical
/// whichever path runs.
pub(crate) fn memoized_batch<K: Bits, R, S, B>(addrs: &[K], scalar: S, bulk: B) -> Vec<R>
where
    R: Copy,
    S: Fn(K) -> R,
    B: Fn(&[K], &mut Vec<R>),
{
    if addrs.is_empty() {
        return Vec::new();
    }
    // Power-of-two direct-mapped memo sized to the batch (capped: the
    // point is cache residency, not completeness). The probe phase only
    // ever inserts `window` distinct keys, so the memo starts at probe
    // size; duplicate-rich batches that stay on the memo path get a
    // batch-sized memo for the remainder. Memo shape never changes
    // answers — only which duplicates are served without a walk.
    let (window, divisor) = MEMO_BYPASS;
    let probe = addrs.len().min(window);
    let slots = (probe.next_power_of_two() * 2).clamp(64, 4096);
    let mut memo: Vec<Option<(K, R)>> = vec![None; slots];
    // Tally memo traffic locally and flush once per batch: the memo is
    // per-call, so hit/miss/bypass totals are a pure function of the input
    // batches and stay layout-invariant.
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut out: Vec<R> = Vec::with_capacity(addrs.len());
    // Captures only `scalar`; the mutable state is threaded through
    // arguments so the hit count stays readable between the two loops.
    let probe_memo = |addr: K,
                      memo: &mut Vec<Option<(K, R)>>,
                      hits: &mut u64,
                      misses: &mut u64,
                      out: &mut Vec<R>| {
        let slots = memo.len();
        let slot =
            (addr.fold_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as usize & (slots - 1);
        match memo[slot] {
            Some((key, res)) if key == addr => {
                *hits += 1;
                out.push(res);
            }
            _ => {
                *misses += 1;
                let res = scalar(addr);
                memo[slot] = Some((addr, res));
                out.push(res);
            }
        }
    };
    for &addr in &addrs[..probe] {
        probe_memo(addr, &mut memo, &mut hits, &mut misses, &mut out);
    }
    let rest = &addrs[probe..];
    if !rest.is_empty() {
        if (hits as usize) * divisor < probe {
            // Duplicate-poor batch: the memo costs more than it saves.
            obs::counter_add("lpm.memo_bypassed", rest.len() as u64);
            bulk(rest, &mut out);
        } else {
            // Duplicate-rich: grow the memo to batch size (rehash-free —
            // just a fresh table; the probe window's entries re-fault once).
            let grown = (addrs.len().next_power_of_two()).clamp(64, 4096);
            if grown > slots {
                memo = vec![None; grown];
            }
            for &addr in rest {
                probe_memo(addr, &mut memo, &mut hits, &mut misses, &mut out);
            }
        }
    }
    obs::counter_add("lpm.memo_hits", hits);
    obs::counter_add("lpm.memo_misses", misses);
    out
}

/// Compile sorted `(key, plen, result id)` entries into the flattened
/// root + nodes + leaves arrays.
fn build_table<K: Bits>(entries: &[(K, u8, u32)]) -> Repr<K> {
    let mut root = vec![RES_NONE; 1usize << K::ROOT_BITS];
    let mut nodes: Vec<MbNode> = Vec::new();
    let mut leaves: Vec<u32> = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let (key, plen, id) = entries[i];
        if plen <= K::ROOT_BITS {
            // Leaf-push the short prefix over every root slot it covers. In
            // (key, plen) order a covering (shallower) prefix paints before
            // anything it covers, so deepest-wins falls out of plain
            // overwrites — and no later short paint can cross a slot already
            // owned by a deep group (the group's covering shorts all sorted
            // earlier).
            let base = key.root_slot();
            let count = 1usize << (K::ROOT_BITS - plen);
            for slot in &mut root[base..base + count] {
                debug_assert_eq!(*slot & NODE_TAG, 0);
                *slot = id;
            }
            i += 1;
        } else {
            // All remaining entries of this root slot are ≥ this key, hence
            // also deep: one contiguous group per subtree.
            let slot = key.root_slot();
            let mut j = i + 1;
            while j < entries.len() && entries[j].0.root_slot() == slot {
                j += 1;
            }
            let inherited = root[slot];
            let node = nodes.len();
            nodes.push(MbNode::default());
            root[slot] = NODE_TAG | node as u32;
            build_node(
                &mut nodes,
                &mut leaves,
                node,
                &entries[i..j],
                K::ROOT_BITS,
                inherited,
            );
            i = j;
        }
    }
    Repr::Table {
        root,
        nodes,
        leaves,
    }
}

/// Build `nodes[at]` covering the subtree rooted `depth` bits deep, from
/// the sorted entries strictly below `depth`. `inherited` is the best match
/// covering the whole subtree from above (leaf-pushing input).
fn build_node<K: Bits>(
    nodes: &mut Vec<MbNode>,
    leaves: &mut Vec<u32>,
    at: usize,
    entries: &[(K, u8, u32)],
    depth: u8,
    inherited: u32,
) {
    let mut depth = depth;
    let mut inherited = inherited;
    let mut entries = entries;
    // Path compression: every entry below this node agrees on the bit run
    // [depth, shared), where `shared` is the keys' common prefix capped at
    // the shallowest prefix length (bits past an entry's plen are padding,
    // not prefix). Nothing is painted inside the run, so a diverging
    // address resolves to the inherited cover — one verified compare
    // replaces what would otherwise be a chain of single-child stride
    // levels. `miss` keeps the pre-absorption cover for exactly that case.
    let miss = inherited;
    let (first, last) = (entries[0].0, entries[entries.len() - 1].0);
    let min_plen = entries.iter().map(|e| e.1).min().unwrap_or(K::WIDTH);
    let shared = first.common_prefix_len(last).min(min_plen);
    let skip = if shared > depth {
        // `skip_key` holds ≤ 64 bits; longer runs chain a second skip node.
        (shared - depth).min(64)
    } else {
        0
    };
    let skip_key = if skip > 0 {
        first.bits_at(depth, skip)
    } else {
        0
    };
    depth += skip;
    // A prefix ending exactly at the compressed depth covers the whole
    // remaining subtree: absorb it as the new inherited (leaf-pushed) cover.
    while let Some((&(_, plen, id), rest)) = entries.split_first() {
        if plen > depth {
            break;
        }
        inherited = id;
        entries = rest;
    }
    let stride = (K::WIDTH - depth).min(STRIDE);
    let nchunks = 1usize << stride;
    // Best match per chunk after painting this level's prefixes over the
    // inherited cover (sorted order ⇒ plain overwrites are deepest-wins).
    let mut best = [RES_NONE; 64];
    best[..nchunks].fill(inherited);
    // Deep entries grouped by chunk: `(chunk, start, end)` into `entries`.
    let mut groups: Vec<(usize, usize, usize)> = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let (key, plen, id) = entries[i];
        debug_assert!(plen > depth);
        if plen <= depth + stride {
            let first = key.chunk(depth, stride);
            let count = 1usize << (depth + stride - plen);
            best[first..first + count].fill(id);
            i += 1;
        } else {
            let chunk = key.chunk(depth, stride);
            let mut j = i + 1;
            while j < entries.len()
                && entries[j].1 > depth + stride
                && entries[j].0.chunk(depth, stride) == chunk
            {
                j += 1;
            }
            groups.push((chunk, i, j));
            i = j;
        }
    }
    let mut vector = 0u64;
    for &(chunk, ..) in &groups {
        vector |= 1u64 << chunk;
    }
    // Children of one node are contiguous — reserve the block, then recurse.
    let base_children = nodes.len() as u32;
    nodes.resize(nodes.len() + groups.len(), MbNode::default());
    // Run-length collapse the leaf chunks: a bit in `leafvec` per run start.
    let base_leaves = leaves.len() as u32;
    let mut leafvec = 0u64;
    let mut prev: Option<u32> = None;
    for (chunk, &id) in best[..nchunks].iter().enumerate() {
        if vector >> chunk & 1 == 1 {
            prev = None; // a child interrupts the run
            continue;
        }
        if prev != Some(id) {
            leafvec |= 1u64 << chunk;
            leaves.push(id);
            prev = Some(id);
        }
    }
    let mut node = MbNode {
        vector,
        leafvec,
        skip_key,
        base_children,
        base_leaves,
        miss,
        skip,
    };
    if vector == 0 && leaves.len() == base_leaves as usize + 1 {
        // Uniform subtree — a single leaf run and no children. Encode the
        // result id inline (leafvec = 0, id in base_leaves) so lookups skip
        // the leaf-array load; regular nodes can never present this bitmap
        // pair (an all-leaf node always sets a run-start bit).
        node.leafvec = 0;
        node.base_leaves = leaves.pop().expect("single run just pushed");
    }
    nodes[at] = node;
    for (child, &(chunk, start, end)) in groups.iter().enumerate() {
        build_node(
            nodes,
            leaves,
            base_children as usize + child,
            &entries[start..end],
            depth + stride,
            best[chunk],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frozen<K: Bits>(entries: &[(K, u8, u32)]) -> FrozenLpm<K, u32> {
        let map: BTreeMap<(K, u8), u32> = entries
            .iter()
            .map(|&(key, plen, value)| ((key.truncate(plen), plen), value))
            .collect();
        FrozenLpm::build(&map)
    }

    /// Linear-scan oracle over distinct `(key, plen)` entries.
    fn oracle<K: Bits>(entries: &[(K, u8, u32)], addr: K) -> Option<(u8, &u32)> {
        entries
            .iter()
            .filter(|&&(key, plen, _)| addr.truncate(plen) == key.truncate(plen))
            .max_by_key(|&&(_, plen, _)| plen)
            .map(|(_, plen, value)| (*plen, value))
    }

    /// Enough distinct /16 anchors to push the table out of the small
    /// linear-scan repr.
    fn anchors() -> Vec<(u32, u8, u32)> {
        (0..16u32)
            .map(|i| (0xb000_0000 + (i << 16), 16, 900 + i))
            .collect()
    }

    #[test]
    fn frozen_matches_oracle_basics() {
        let mut entries = anchors();
        entries.extend([
            (0, 0, 1),            // default route
            (0x0a00_0000, 8, 2),  // short prefix
            (0x0a14_0000, 16, 3), // exactly ROOT_BITS
            (0x0a14_8000, 17, 4), // one past the root stride
            (0x0a14_8080, 26, 5), // mid-stride
            (0xc0a8_0101, 32, 6), // host route
        ]);
        let frozen = frozen(&entries);
        assert!(frozen.node_count() > 0, "table repr");
        for addr in [
            0u32,
            0x0a00_0001,
            0x0a14_0001,
            0x0a14_8001,
            0x0a14_8081,
            0x0a14_80ff,
            0xc0a8_0101,
            0xc0a8_0102,
            0xffff_ffff,
            0xb003_1234,
        ] {
            assert_eq!(
                frozen.longest_match(addr),
                oracle(&entries, addr),
                "addr {addr:#010x}"
            );
        }
    }

    #[test]
    fn no_default_route_misses() {
        let mut entries = anchors();
        entries.push((0x0a14_8000, 26, 7));
        let frozen = frozen(&entries);
        assert_eq!(frozen.longest_match(0x0a14_8100), None);
        assert_eq!(frozen.longest_match(0x0a14_8001), Some((26, &7)));
    }

    #[test]
    fn small_tables_stay_linear() {
        let entries = [(0x0a00_0000, 8, 1), (0, 0, 2)];
        let frozen = frozen(&entries);
        assert_eq!(frozen.node_count(), 0, "small repr allocates no nodes");
        for addr in [0x0a01_0101u32, 0x0b00_0000, 0] {
            assert_eq!(frozen.longest_match(addr), oracle(&entries, addr));
        }
    }

    #[test]
    fn batched_matches_scalar_on_dup_and_unique_batches() {
        let mut entries = anchors();
        for i in 0..512u32 {
            // Scattered /24s: multibit nodes several levels deep.
            entries.push((0x1000_0000 + (i * 0x0002_0100), 24, i));
        }
        entries.push((0x1000_0000, 8, 7777));
        let frozen = frozen(&entries);
        let mut rng = 0x243f_6a88_85a3_08d3u64;
        let mut addrs: Vec<u32> = (0..4096)
            .map(|_| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                0x1000_0000 + ((rng >> 33) as u32 % 0x0400_0000)
            })
            .collect();
        // Unique-heavy batch (bypass path), then a duplicate-heavy one.
        for batch in [addrs.clone(), {
            addrs.truncate(64);
            addrs.iter().cycle().take(4096).copied().collect()
        }] {
            let got = frozen.longest_match_many(&batch);
            let values = frozen.values_many(&batch);
            for (i, &addr) in batch.iter().enumerate() {
                let want = oracle(&entries, addr);
                assert_eq!(got[i], want, "addr {addr:#010x}");
                assert_eq!(values[i], want.map(|(_, v)| v), "addr {addr:#010x}");
            }
        }
    }

    #[test]
    fn v6_deep_prefixes_match() {
        let mut entries: Vec<(u128, u8, u32)> = Vec::new();
        for i in 0..64u128 {
            entries.push((0x2001_0db8 << 96 | i << 80, 48, i as u32));
            entries.push((
                0x2001_0db8 << 96 | i << 80 | 0xabcd << 64,
                64,
                1000 + i as u32,
            ));
        }
        entries.push((0x2000 << 112, 3, 424242)); // short v6 prefix
        entries.push((0, 0, 1));
        let frozen = frozen(&entries);
        let mut rng = 0x1337u64;
        for _ in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (rng >> 20) as u128 % 64;
            let tail = (rng as u128) << 32 | rng as u128;
            for addr in [
                0x2001_0db8 << 96 | i << 80 | tail & ((1 << 80) - 1),
                0x2001_0db8 << 96 | i << 80 | 0xabcd << 64 | tail & ((1 << 64) - 1),
                tail,
            ] {
                assert_eq!(frozen.longest_match(addr), oracle(&entries, addr));
            }
        }
    }

    #[test]
    fn footprint_is_reported() {
        let entries: Vec<(u32, u8, u32)> = (0..1000u32).map(|i| (i << 14, 24, i)).collect();
        let frozen = frozen(&entries);
        assert!(frozen.node_count() > 0);
        // Root table alone is 256 KiB.
        assert!(frozen.heap_bytes() > 1 << 18, "{}", frozen.heap_bytes());
    }
}
