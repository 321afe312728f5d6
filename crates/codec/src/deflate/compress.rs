//! DEFLATE compression: an LZ77 hash-chain matcher feeding stored,
//! fixed-Huffman, or dynamic-Huffman block emission, whichever is smallest.

use crate::deflate::bits::BitWriter;
use crate::deflate::huffman::{build_lengths, EncTable};
use crate::deflate::tables::{
    distance_index, length_index, CLEN_ORDER, DIST_BASE, DIST_EXTRA, FIXED_DIST_LENS,
    FIXED_LITLEN_LENS, LEN_BASE, LEN_EXTRA,
};
use crate::working_set;

/// Compression effort: how hard the LZ77 stage searches. Every level but
/// [`Store`](Level::Store) then emits each block as whichever of stored,
/// fixed-Huffman and dynamic-Huffman is smallest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// No compression: stored blocks only (fastest, for incompressible data).
    Store,
    /// Long matches only: 8-byte hash chains, at most 16 candidates, and a
    /// match is kept only if it is at least 8 bytes long. Built for the DCT
    /// coefficient body, where a short match costs more bits than the
    /// varint literals it replaces; text and filtered scanlines compress
    /// better at [`Default`](Level::Default).
    Fast,
    /// LZ77 with deeper chains (default).
    Default,
    /// Deepest chains + lazy matching.
    Best,
}

/// How the LZ77 stage searches at one level.
#[derive(Debug, Clone, Copy)]
struct Policy {
    /// Hash 8 bytes into the chains and keep only matches of at least
    /// [`LONG_MIN_MATCH`]. Otherwise the chains hash 4 bytes and a
    /// single-entry 3-byte head beside them finds matches of [`MIN_MATCH`].
    long: bool,
    /// Candidates walked per position.
    max_chain: usize,
    /// Stop walking once a match at least this long is in hand: the
    /// marginal win from a longer match rarely pays for a deep walk at the
    /// faster levels.
    nice_len: usize,
    /// Try the next position before taking a match (`Best`).
    lazy: bool,
}

impl Level {
    fn policy(self) -> Policy {
        let (long, max_chain, nice_len, lazy) = match self {
            Level::Store => (false, 0, 0, false),
            Level::Fast => (true, 16, MAX_MATCH, false),
            Level::Default => (false, 128, 128, false),
            Level::Best => (false, 1024, MAX_MATCH, true),
        };
        Policy {
            long,
            max_chain,
            nice_len,
            lazy,
        }
    }
}

const WINDOW_SIZE: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
/// Shortest match the long-match policy ([`Level::Fast`]) keeps: one hashed
/// `u64`.
const LONG_MIN_MATCH: usize = 8;
const MAX_MATCH: usize = 258;
/// Emit a block at most this many tokens long so Huffman tables adapt.
const MAX_BLOCK_TOKENS: usize = 64 * 1024;

/// One LZ77 token, four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Token {
    Literal(u8),
    /// A match of `MIN_MATCH + extra` bytes, so that the length fits a
    /// byte, at distance `dist`.
    Match {
        extra: u8,
        dist: u16,
    },
}

const _: () = assert!(std::mem::size_of::<Token>() == 4);

impl Token {
    fn matched(len: usize, dist: usize) -> Token {
        Token::Match {
            extra: (len - MIN_MATCH) as u8,
            dist: dist as u16,
        }
    }

    /// Input bytes the token stands for.
    fn input_len(self) -> usize {
        match self {
            Token::Literal(_) => 1,
            Token::Match { extra, .. } => MIN_MATCH + extra as usize,
        }
    }
}

/// The LZ77 stage's working memory: the match finder's tables and the
/// token buffer. A thread keeps one in its codec working set
/// ([`crate::working_set`]) from call to call; every call sizes the tables
/// from its own input with [`table_bits`] and zeroes the heads, so what an
/// earlier call left behind never reaches the output.
#[derive(Debug, Default)]
pub(crate) struct Lz77Scratch {
    /// Single-entry 3-byte head (short policy only).
    pub(crate) head3: Vec<u32>,
    /// Chain heads.
    pub(crate) head: Vec<u32>,
    /// Chain links, one per input position.
    pub(crate) prev: Vec<u32>,
    pub(crate) tokens: Vec<Token>,
}

/// Compress `data` into a raw DEFLATE stream.
pub fn deflate(data: &[u8], level: Level) -> Vec<u8> {
    working_set::assemble(|ws, out| deflate_into(&mut ws.lz, data, level, out))
}

/// Append the raw DEFLATE stream of `data` to `out`.
pub(crate) fn deflate_into(lz: &mut Lz77Scratch, data: &[u8], level: Level, out: &mut Vec<u8>) {
    let mut w = BitWriter::append_to(std::mem::take(out));
    if level == Level::Store || data.is_empty() {
        // An empty input is one final stored block of length zero.
        write_stored(&mut w, data);
    } else {
        lz77(lz, data, level);
        let tokens = &lz.tokens;
        // Split the token stream into blocks and pick per block the
        // cheapest of stored / fixed / dynamic. `pos` tracks the raw-byte
        // offset so stored blocks can reference the original data.
        let mut pos = 0usize;
        let mut start = 0usize;
        while start < tokens.len() {
            let end = (start + MAX_BLOCK_TOKENS).min(tokens.len());
            let block = &tokens[start..end];
            let raw_len: usize = block.iter().map(|t| t.input_len()).sum();
            let last = end == tokens.len();
            write_best_block(&mut w, block, &data[pos..pos + raw_len], last);
            pos += raw_len;
            start = end;
        }
    }
    *out = w.finish();
}

fn write_stored(w: &mut BitWriter, data: &[u8]) {
    let mut chunks = data.chunks(u16::MAX as usize).peekable();
    if data.is_empty() {
        w.write_bits(1, 1);
        w.write_bits(0, 2);
        w.align_to_byte();
        w.write_aligned_bytes(&0u16.to_le_bytes());
        w.write_aligned_bytes(&0xffffu16.to_le_bytes());
        return;
    }
    while let Some(chunk) = chunks.next() {
        let bfinal = u32::from(chunks.peek().is_none());
        w.write_bits(bfinal, 1);
        w.write_bits(0, 2);
        w.align_to_byte();
        w.write_aligned_bytes(&(chunk.len() as u16).to_le_bytes());
        w.write_aligned_bytes(&(!(chunk.len() as u16)).to_le_bytes());
        w.write_aligned_bytes(chunk);
    }
}

/// Hash-table widths sized to the input: a 64 KiB head table is pure
/// memset overhead when compressing a 12 KiB filtered tile. Deterministic
/// in the input length, so output bytes stay a pure function of
/// `(data, level)`.
fn table_bits(len: usize) -> (u32, u32) {
    let need = len.max(256).next_power_of_two().trailing_zeros();
    (need.clamp(8, 14), need.clamp(8, 16))
}

/// 3-byte hash (used for a single most-recent head, catching short-range
/// length-3 matches the 4-byte chains cannot see).
#[inline(always)]
fn hash3(data: &[u8], i: usize, shift: u32) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> shift) as usize
}

/// 4-byte hash feeding the main chains: one more byte of context halves
/// the rate of false chain entries vs the old 3-byte chains.
#[inline(always)]
fn hash4(data: &[u8], i: usize, shift: u32) -> usize {
    let v = u32::from_le_bytes(data[i..i + 4].try_into().unwrap());
    (v.wrapping_mul(0x9E37_79B1) >> shift) as usize
}

/// 8-byte hash feeding the long-match chains: one `u64` load, so every
/// candidate it turns up shares the whole minimum match with `i` unless
/// two words collide.
#[inline(always)]
fn hash8(data: &[u8], i: usize, shift: u32) -> usize {
    let v = u64::from_le_bytes(data[i..i + 8].try_into().unwrap());
    (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// Length of the common prefix of `data[cand..]` and `data[i..]`, capped at
/// `limit`, compared 8 bytes at a time. Caller guarantees
/// `i + limit <= data.len()` and `cand < i`. Byte-equality semantics are
/// identical to a byte-at-a-time loop (overlapping self-referential matches
/// included: both compare the raw input, not the decoder's copy).
#[inline]
fn match_len(data: &[u8], cand: usize, i: usize, limit: usize) -> usize {
    let mut l = 0;
    while l + 8 <= limit {
        let a = u64::from_le_bytes(data[cand + l..cand + l + 8].try_into().unwrap());
        let b = u64::from_le_bytes(data[i + l..i + l + 8].try_into().unwrap());
        let x = a ^ b;
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && data[cand + l] == data[i + l] {
        l += 1;
    }
    l
}

/// Hash-chain match finder. Under the short policy (`LONG = false`): a
/// single-entry 3-byte head plus 4-byte hash chains (libdeflate's
/// arrangement). Under the long one: 8-byte hash chains alone. The policy
/// is a type parameter so each level's walk compiles without the other's
/// branches. Positions are stored `+1` in `u32` slots so `0` means empty.
struct MatchFinder<'a, const LONG: bool> {
    data: &'a [u8],
    /// Empty under the long policy.
    head3: &'a mut [u32],
    head: &'a mut [u32],
    prev: &'a mut [u32],
    shift3: u32,
    shift: u32,
    max_chain: usize,
    nice_len: usize,
}

/// `table` as `len` zeroes, in the buffer it already has when that is
/// large enough.
fn zeroed(table: &mut Vec<u32>, len: usize) -> &mut [u32] {
    table.clear();
    table.reserve_exact(len);
    table.resize(len, 0);
    table
}

impl<'a, const LONG: bool> MatchFinder<'a, LONG> {
    /// Shortest match this finder keeps.
    const MIN_LEN: usize = if LONG { LONG_MIN_MATCH } else { MIN_MATCH };

    /// A finder over `data` in the tables of `head3`/`head`/`prev`, sized
    /// by [`table_bits`] as if freshly allocated.
    fn new(
        data: &'a [u8],
        policy: Policy,
        head3: &'a mut Vec<u32>,
        head: &'a mut Vec<u32>,
        prev: &'a mut Vec<u32>,
    ) -> Self {
        assert!(
            data.len() < u32::MAX as usize,
            "deflate input exceeds u32 position space"
        );
        let (bits3, bits) = table_bits(data.len());
        let (head3_len, shift) = if LONG {
            (0, 64 - bits)
        } else {
            (1 << bits3, 32 - bits)
        };
        // `prev` is not zeroed: a chain reaches only positions `link` has
        // entered, and `link` writes a position's slot before its head
        // can name it, so a slot is never read before this call wrote it.
        if prev.len() < data.len() {
            prev.reserve_exact(data.len() - prev.len());
            prev.resize(data.len(), 0);
        }
        MatchFinder {
            data,
            head3: zeroed(head3, head3_len),
            head: zeroed(head, 1 << bits),
            prev: &mut prev[..data.len()],
            shift3: 32 - bits3,
            shift,
            max_chain: policy.max_chain,
            nice_len: policy.nice_len,
        }
    }

    /// The one place the `i + MIN_LEN` bound lives: positions too close
    /// to the end can neither be hashed nor start a match.
    #[inline(always)]
    fn hashable(&self, i: usize) -> bool {
        i + Self::MIN_LEN <= self.data.len()
    }

    /// Enter position `i` into the hash tables.
    #[inline(always)]
    fn insert(&mut self, i: usize) {
        if !self.hashable(i) {
            return;
        }
        if LONG {
            self.link(i, hash8(self.data, i, self.shift));
        } else {
            self.head3[hash3(self.data, i, self.shift3)] = (i + 1) as u32;
            if i + 4 <= self.data.len() {
                self.link(i, hash4(self.data, i, self.shift));
            }
        }
    }

    /// Push position `i` onto the front of chain `h`.
    #[inline(always)]
    fn link(&mut self, i: usize, h: usize) {
        self.prev[i] = self.head[h];
        self.head[h] = (i + 1) as u32;
    }

    /// Best `(len, dist)` match for position `i`, if any of at least
    /// `MIN_LEN` exists within the window.
    fn find(&self, i: usize) -> Option<(usize, usize)> {
        if !self.hashable(i) {
            return None;
        }
        let data = self.data;
        let limit = MAX_MATCH.min(data.len() - i);
        let mut best_len = Self::MIN_LEN - 1;
        let mut best_dist = 0usize;

        let head = if LONG {
            hash8(data, i, self.shift)
        } else {
            // Most recent position sharing the 3-byte prefix: the only
            // source of length-3 matches (the chains need 4 bytes of
            // context).
            let c3 = self.head3[hash3(data, i, self.shift3)];
            if c3 != 0 {
                let cand = (c3 - 1) as usize;
                let dist = i - cand;
                if dist <= WINDOW_SIZE {
                    let l = match_len(data, cand, i, limit);
                    if l >= MIN_MATCH {
                        best_len = l;
                        best_dist = dist;
                    }
                }
            }
            if i + 4 > data.len() {
                return (best_len >= MIN_MATCH).then_some((best_len, best_dist));
            }
            hash4(data, i, self.shift)
        };

        // Walk the chain for longer matches.
        if best_len < limit && best_len < self.nice_len {
            let mut cand = self.head[head];
            let mut chain = 0usize;
            while cand != 0 && chain < self.max_chain {
                let c = (cand - 1) as usize;
                let dist = i - c;
                if dist > WINDOW_SIZE {
                    break;
                }
                // Quick reject on the byte past the current best (in range:
                // best_len < limit is invariant while the loop runs).
                if data[c + best_len] == data[i + best_len] {
                    let l = match_len(data, c, i, limit);
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l >= limit || l >= self.nice_len {
                            break;
                        }
                    }
                }
                cand = self.prev[c];
                chain += 1;
            }
        }

        (best_len >= Self::MIN_LEN).then_some((best_len, best_dist))
    }
}

/// Greedy (or lazy, at `Level::Best`) hash-chain LZ77 into `lz.tokens`.
pub(crate) fn lz77(lz: &mut Lz77Scratch, data: &[u8], level: Level) {
    let policy = level.policy();
    if policy.long {
        lz77_with::<true>(lz, data, policy)
    } else {
        lz77_with::<false>(lz, data, policy)
    }
}

fn lz77_with<const LONG: bool>(lz: &mut Lz77Scratch, data: &[u8], policy: Policy) {
    let mut f = MatchFinder::<LONG>::new(data, policy, &mut lz.head3, &mut lz.head, &mut lz.prev);
    // The long policy leaves most bytes as literals (a DCT body comes out
    // at 0.6–0.7 tokens per byte), so it takes the bound, one token per
    // byte, rather than grow from half of it.
    let cap = if LONG { data.len() } else { data.len() / 2 };
    let tokens = &mut lz.tokens;
    tokens.clear();
    tokens.reserve_exact(cap);

    let mut i = 0;
    while i < data.len() {
        match f.find(i) {
            Some((mut len, mut dist)) => {
                // Lazy evaluation: if the next position has a strictly longer
                // match, emit a literal instead and take that one.
                if policy.lazy && i + 1 < data.len() {
                    f.insert(i);
                    if let Some((len2, dist2)) = f.find(i + 1) {
                        if len2 > len {
                            tokens.push(Token::Literal(data[i]));
                            i += 1;
                            len = len2;
                            dist = dist2;
                        }
                    }
                    tokens.push(Token::matched(len, dist));
                    let end = i + len;
                    // `i` itself was inserted above.
                    let mut j = i + 1;
                    while j < end && j < data.len() {
                        f.insert(j);
                        j += 1;
                    }
                    i = end;
                } else {
                    tokens.push(Token::matched(len, dist));
                    let end = i + len;
                    let mut j = i;
                    while j < end && j < data.len() {
                        f.insert(j);
                        j += 1;
                    }
                    i = end;
                }
            }
            None => {
                tokens.push(Token::Literal(data[i]));
                f.insert(i);
                i += 1;
            }
        }
    }
}

/// Histogram the token stream into litlen and dist symbol frequencies.
fn frequencies(tokens: &[Token]) -> ([u32; 286], [u32; 30]) {
    let mut lit = [0u32; 286];
    let mut dist = [0u32; 30];
    for &t in tokens {
        match t {
            Token::Literal(b) => lit[b as usize] += 1,
            Token::Match { dist: d, .. } => {
                lit[257 + length_index(t.input_len() as u16)] += 1;
                dist[distance_index(d)] += 1;
            }
        }
    }
    lit[256] += 1; // end-of-block
    (lit, dist)
}

/// Bits the block body takes under the given code lengths, from the
/// histogram alone: each symbol costs its code plus its extra bits.
fn body_cost_bits(
    lit_freq: &[u32; 286],
    dist_freq: &[u32; 30],
    lit_lens: &[u8],
    dist_lens: &[u8],
) -> usize {
    let mut bits = 0usize;
    for (sym, &f) in lit_freq.iter().enumerate() {
        let extra = if sym > 256 { LEN_EXTRA[sym - 257] } else { 0 };
        bits += f as usize * (lit_lens[sym] + extra) as usize;
    }
    for (sym, &f) in dist_freq.iter().enumerate() {
        bits += f as usize * (dist_lens[sym] + DIST_EXTRA[sym]) as usize;
    }
    bits
}

fn write_tokens(w: &mut BitWriter, tokens: &[Token], lit: &EncTable, dist: &EncTable) {
    for &t in tokens {
        match t {
            Token::Literal(b) => {
                w.write_bits(lit.codes[b as usize] as u32, lit.lens[b as usize] as u32);
            }
            Token::Match { dist: d, .. } => {
                let len = t.input_len() as u16;
                // Code and extra bits go out as one field each: at most
                // 15 + 5 bits for the length, 15 + 13 for the distance.
                let li = length_index(len);
                let code_len = lit.lens[257 + li] as u32;
                let extra = (len - LEN_BASE[li]) as u32;
                w.write_bits(
                    lit.codes[257 + li] as u32 | extra << code_len,
                    code_len + LEN_EXTRA[li] as u32,
                );
                let di = distance_index(d);
                let code_len = dist.lens[di] as u32;
                let extra = (d - DIST_BASE[di]) as u32;
                w.write_bits(
                    dist.codes[di] as u32 | extra << code_len,
                    code_len + DIST_EXTRA[di] as u32,
                );
            }
        }
    }
    w.write_bits(lit.codes[256] as u32, lit.lens[256] as u32);
}

/// The litlen + dist code lengths of a dynamic header as code-length
/// symbols, run-length coded (RFC 1951 §3.2.7).
struct ClenRle {
    /// (code-length symbol, extra-bits value) pairs.
    items: [(u8, u8); 286 + 30],
    len: usize,
}

impl ClenRle {
    fn items(&self) -> &[(u8, u8)] {
        &self.items[..self.len]
    }

    fn push(&mut self, sym: u8, extra: u8) {
        self.items[self.len] = (sym, extra);
        self.len += 1;
    }
}

/// Code-length-alphabet RLE (symbols 16/17/18) for the dynamic header.
fn rle_code_lengths(lens: &[u8]) -> ClenRle {
    let mut out = ClenRle {
        items: [(0, 0); 286 + 30],
        len: 0,
    };
    let mut i = 0;
    while i < lens.len() {
        let v = lens[i];
        let mut run = 1;
        while i + run < lens.len() && lens[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut remaining = run;
            while remaining >= 11 {
                let take = remaining.min(138);
                out.push(18, (take - 11) as u8);
                remaining -= take;
            }
            if remaining >= 3 {
                out.push(17, (remaining - 3) as u8);
                remaining = 0;
            }
            for _ in 0..remaining {
                out.push(0, 0);
            }
        } else {
            out.push(v, 0);
            let mut remaining = run - 1;
            while remaining >= 3 {
                let take = remaining.min(6);
                out.push(16, (take - 3) as u8);
                remaining -= take;
            }
            for _ in 0..remaining {
                out.push(v, 0);
            }
        }
        i += run;
    }
    out
}

static FIXED_LITLEN: EncTable = EncTable::from_lens(&FIXED_LITLEN_LENS);
static FIXED_DIST: EncTable = EncTable::from_lens(&FIXED_DIST_LENS);

/// Emit one block choosing the cheapest representation.
fn write_best_block(w: &mut BitWriter, tokens: &[Token], raw: &[u8], last: bool) {
    let (lit_freq, dist_freq) = frequencies(tokens);
    let mut dyn_lit_lens = [0u8; 286];
    let mut dyn_dist_lens = [0u8; 30];
    build_lengths(&lit_freq, 15, &mut dyn_lit_lens);
    build_lengths(&dist_freq, 15, &mut dyn_dist_lens);
    if dyn_dist_lens.iter().all(|&l| l == 0) {
        // No distances used: emit a single dummy 1-bit code (decoders accept
        // the incomplete single-code case).
        dyn_dist_lens[0] = 1;
    }

    let fixed_cost =
        3 + body_cost_bits(&lit_freq, &dist_freq, &FIXED_LITLEN_LENS, &FIXED_DIST_LENS);
    let header = DynamicHeader::plan(&dyn_lit_lens, &dyn_dist_lens);
    let dyn_cost =
        3 + header.bits + body_cost_bits(&lit_freq, &dist_freq, &dyn_lit_lens, &dyn_dist_lens);
    // Stored cost (upper bound, ignores alignment slack).
    let stored_cost = 3 + 32 + raw.len() * 8 + 7;

    if stored_cost < fixed_cost && stored_cost < dyn_cost {
        // Stored block(s). Note: `write_stored` writes its own BFINAL per
        // chunk, so only use it when this is the last block or raw fits one
        // chunk; otherwise fall through to fixed (rare: incompressible
        // middle blocks).
        if last {
            w.reserve(raw.len() + 5 * raw.len().div_ceil(u16::MAX as usize) + 1);
            write_stored(w, raw);
            return;
        } else if raw.len() <= u16::MAX as usize {
            w.reserve(raw.len() + 6);
            w.write_bits(0, 1);
            w.write_bits(0, 2);
            w.align_to_byte();
            w.write_aligned_bytes(&(raw.len() as u16).to_le_bytes());
            w.write_aligned_bytes(&(!(raw.len() as u16)).to_le_bytes());
            w.write_aligned_bytes(raw);
            return;
        }
    }

    // The costs are exact, so the block's bytes can be reserved in one go
    // (plus the writer's pending word).
    w.reserve(dyn_cost.min(fixed_cost) / 8 + 9);
    w.write_bits(u32::from(last), 1);
    if dyn_cost < fixed_cost {
        w.write_bits(2, 2);
        header.write(w);
        let lit = EncTable::from_lens(&dyn_lit_lens);
        let dist = EncTable::from_lens(&dyn_dist_lens);
        write_tokens(w, tokens, &lit, &dist);
    } else {
        w.write_bits(1, 2);
        write_tokens(w, tokens, &FIXED_LITLEN, &FIXED_DIST);
    }
}

/// Everything a dynamic block's header says, worked out once for both the
/// cost estimate and the emission.
struct DynamicHeader {
    hlit: usize,
    hdist: usize,
    hclen: usize,
    clen_lens: [u8; 19],
    rle: ClenRle,
    /// Size of the header in bits.
    bits: usize,
}

impl DynamicHeader {
    fn plan(lit_lens: &[u8; 286], dist_lens: &[u8; 30]) -> Self {
        // Trim trailing zeros, respecting the minima DEFLATE requires.
        let hlit = trimmed_len(lit_lens, 257);
        let hdist = trimmed_len(dist_lens, 1);
        let mut all = [0u8; 286 + 30];
        all[..hlit].copy_from_slice(&lit_lens[..hlit]);
        all[hlit..hlit + hdist].copy_from_slice(&dist_lens[..hdist]);
        let rle = rle_code_lengths(&all[..hlit + hdist]);
        let mut clen_freq = [0u32; 19];
        for &(sym, _) in rle.items() {
            clen_freq[sym as usize] += 1;
        }
        let mut clen_lens = [0u8; 19];
        build_lengths(&clen_freq, 7, &mut clen_lens);
        // HCLEN: number of code-length-code lengths transmitted, in CLEN_ORDER.
        let mut hclen = 19;
        while hclen > 4 && clen_lens[CLEN_ORDER[hclen - 1] as usize] == 0 {
            hclen -= 1;
        }
        let mut bits = 5 + 5 + 4 + 3 * hclen;
        for (sym, &f) in clen_freq.iter().enumerate() {
            bits += f as usize * (clen_lens[sym] as usize + clen_extra_bits(sym as u8) as usize);
        }
        DynamicHeader {
            hlit,
            hdist,
            hclen,
            clen_lens,
            rle,
            bits,
        }
    }

    fn write(&self, w: &mut BitWriter) {
        w.write_bits((self.hlit - 257) as u32, 5);
        w.write_bits((self.hdist - 1) as u32, 5);
        w.write_bits((self.hclen - 4) as u32, 4);
        for &idx in CLEN_ORDER.iter().take(self.hclen) {
            w.write_bits(self.clen_lens[idx as usize] as u32, 3);
        }
        let clen = EncTable::from_lens(&self.clen_lens);
        for &(sym, extra) in self.rle.items() {
            let code_len = clen.lens[sym as usize] as u32;
            w.write_bits(
                clen.codes[sym as usize] as u32 | (extra as u32) << code_len,
                code_len + clen_extra_bits(sym),
            );
        }
    }
}

/// Extra bits that follow a code-length symbol.
fn clen_extra_bits(sym: u8) -> u32 {
    match sym {
        16 => 2,
        17 => 3,
        18 => 7,
        _ => 0,
    }
}

fn trimmed_len(lens: &[u8], min: usize) -> usize {
    let mut n = lens.len();
    while n > min && lens[n - 1] == 0 {
        n -= 1;
    }
    n
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::deflate::inflate::inflate;
    use proptest::prelude::*;

    const LIMIT: usize = 16 << 20;

    /// The production matcher's tokens for `data`, from fresh tables.
    fn tokens_of(data: &[u8], level: Level) -> Vec<Token> {
        let mut lz = Lz77Scratch::default();
        lz77(&mut lz, data, level);
        lz.tokens
    }

    /// Naive mirror of the production matcher: identical candidate policy
    /// (single 3-byte head and 4-byte chains, or 8-byte chains alone under
    /// the long policy; same chain/nice-length budgets, same traversal
    /// order, tie-breaks and minimum length) with byte-at-a-time match
    /// extension and `usize` tables. Any divergence in the optimised
    /// word-compare walk shows up as a token-stream mismatch.
    pub(crate) fn lz77_reference(data: &[u8], level: Level) -> Vec<Token> {
        let policy = level.policy();
        let min_match = if policy.long { 8 } else { 3 };
        let (bits3, bits) = table_bits(data.len());
        let shift3 = 32 - bits3;
        let shift = if policy.long { 64 - bits } else { 32 - bits };
        let mut head3 = vec![usize::MAX; 1 << bits3];
        let mut head = vec![usize::MAX; 1 << bits];
        let mut prev = vec![usize::MAX; data.len()];
        // The chain a position hashes into, if it has enough bytes left.
        let chain_of = |i: usize| -> Option<usize> {
            if policy.long {
                (i + 8 <= data.len()).then(|| hash8(data, i, shift))
            } else {
                (i + 4 <= data.len()).then(|| hash4(data, i, shift))
            }
        };

        let naive_len = |cand: usize, i: usize, limit: usize| -> usize {
            let mut l = 0;
            while l < limit && data[cand + l] == data[i + l] {
                l += 1;
            }
            l
        };

        let find = |head3: &[usize], head: &[usize], prev: &[usize], i: usize| {
            if i + min_match > data.len() {
                return None;
            }
            let limit = MAX_MATCH.min(data.len() - i);
            let mut best_len = min_match - 1;
            let mut best_dist = 0usize;
            if !policy.long {
                let c3 = head3[hash3(data, i, shift3)];
                if c3 != usize::MAX && i - c3 <= WINDOW_SIZE {
                    let l = naive_len(c3, i, limit);
                    if l >= min_match {
                        best_len = l;
                        best_dist = i - c3;
                    }
                }
            }
            if let Some(h) = chain_of(i) {
                if best_len < limit && best_len < policy.nice_len {
                    let mut cand = head[h];
                    let mut chain = 0usize;
                    while cand != usize::MAX && chain < policy.max_chain {
                        let dist = i - cand;
                        if dist > WINDOW_SIZE {
                            break;
                        }
                        if data[cand + best_len] == data[i + best_len] {
                            let l = naive_len(cand, i, limit);
                            if l > best_len {
                                best_len = l;
                                best_dist = dist;
                                if l >= limit || l >= policy.nice_len {
                                    break;
                                }
                            }
                        }
                        cand = prev[cand];
                        chain += 1;
                    }
                }
            }
            if best_len >= min_match {
                Some((best_len, best_dist))
            } else {
                None
            }
        };

        let insert = |head3: &mut [usize], head: &mut [usize], prev: &mut [usize], i: usize| {
            if i + min_match > data.len() {
                return;
            }
            if !policy.long {
                head3[hash3(data, i, shift3)] = i;
            }
            if let Some(h) = chain_of(i) {
                prev[i] = head[h];
                head[h] = i;
            }
        };

        let mut tokens = Vec::new();
        let mut i = 0;
        while i < data.len() {
            match find(&head3, &head, &prev, i) {
                Some((mut len, mut dist)) => {
                    if policy.lazy && i + 1 < data.len() {
                        insert(&mut head3, &mut head, &mut prev, i);
                        if let Some((len2, dist2)) = find(&head3, &head, &prev, i + 1) {
                            if len2 > len {
                                tokens.push(Token::Literal(data[i]));
                                i += 1;
                                len = len2;
                                dist = dist2;
                            }
                        }
                        tokens.push(Token::matched(len, dist));
                        let end = i + len;
                        let mut j = i + 1;
                        while j < end && j < data.len() {
                            insert(&mut head3, &mut head, &mut prev, j);
                            j += 1;
                        }
                        i = end;
                    } else {
                        tokens.push(Token::matched(len, dist));
                        let end = i + len;
                        let mut j = i;
                        while j < end && j < data.len() {
                            insert(&mut head3, &mut head, &mut prev, j);
                            j += 1;
                        }
                        i = end;
                    }
                }
                None => {
                    tokens.push(Token::Literal(data[i]));
                    insert(&mut head3, &mut head, &mut prev, i);
                    i += 1;
                }
            }
        }
        tokens
    }

    /// A DCT-coefficient-like stream: runs of `0x00` (zero coefficients)
    /// and `0xff` (negative sign bytes) between small signed values, so
    /// long matches and near-misses of every length occur.
    fn varint_like() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec((0u8..4, 1usize..40, -6i8..=6), 0..160).prop_map(|parts| {
            let mut out = Vec::new();
            for (kind, run, v) in parts {
                match kind {
                    0 => out.resize(out.len() + run, 0x00),
                    1 => out.resize(out.len() + run, 0xff),
                    2 => out.push(v as u8),
                    _ => {
                        // Replay an earlier stretch, perturbed at its end.
                        let from = out.len().saturating_sub(run * 3);
                        let copy = out[from..].iter().take(run).copied().collect::<Vec<_>>();
                        out.extend_from_slice(&copy);
                        out.push(v as u8);
                    }
                }
            }
            out
        })
    }

    /// The per-token cost walk the histogram formula replaced.
    fn token_cost_bits(tokens: &[Token], lit_lens: &[u8], dist_lens: &[u8]) -> usize {
        use crate::deflate::tables::{distance_to_symbol, length_to_symbol};
        let mut bits = 0usize;
        for &t in tokens {
            match t {
                Token::Literal(b) => bits += lit_lens[b as usize] as usize,
                Token::Match { dist, .. } => {
                    let (ls, le, _) = length_to_symbol(t.input_len() as u16);
                    let (ds, de, _) = distance_to_symbol(dist);
                    bits += lit_lens[ls as usize] as usize
                        + le as usize
                        + dist_lens[ds as usize] as usize
                        + de as usize;
                }
            }
        }
        bits + lit_lens[256] as usize
    }

    fn token(kind: u8, byte: u8, len: u16, dist: u16) -> Token {
        if kind < 2 {
            Token::Literal(byte)
        } else {
            Token::matched(len as usize, dist as usize)
        }
    }

    #[test]
    fn match_len_agrees_with_naive_at_all_phases() {
        // Exercise every alignment of the u64 fast path, including
        // overlapping (dist < 8) self-referential matches.
        let mut data = Vec::new();
        for i in 0..512usize {
            data.push((i % 7) as u8);
        }
        data.extend_from_slice(&data.clone());
        for dist in 1..16usize {
            for start in 520..540 {
                let limit = MAX_MATCH.min(data.len() - start);
                let fast = match_len(&data, start - dist, start, limit);
                let mut naive = 0;
                while naive < limit && data[start - dist + naive] == data[start + naive] {
                    naive += 1;
                }
                assert_eq!(fast, naive, "dist {dist} start {start}");
            }
        }
    }

    proptest! {
        // The optimised matcher must emit exactly the reference's tokens
        // at every level — this pins the word-compare extension and chain
        // walk to the naive policy byte for byte. The coefficient-like
        // stream is where the long policy finds matches: a random
        // 8-symbol stream rarely repeats 8 bytes.
        #[test]
        fn optimised_matcher_equals_reference(
            data in proptest::collection::vec(0u8..8, 0..2048),
            coefficients in varint_like(),
            level in (0usize..3).prop_map(|i| [Level::Fast, Level::Default, Level::Best][i]),
        ) {
            prop_assert_eq!(tokens_of(&data, level), lz77_reference(&data, level));
            prop_assert_eq!(
                tokens_of(&coefficients, level),
                lz77_reference(&coefficients, level)
            );
        }

        // The long policy keeps no match shorter than 8 bytes, and its
        // streams round-trip.
        #[test]
        fn fast_keeps_only_long_matches(data in varint_like()) {
            for t in tokens_of(&data, Level::Fast) {
                if matches!(t, Token::Match { .. }) {
                    prop_assert!(t.input_len() >= LONG_MIN_MATCH, "match of {}", t.input_len());
                }
            }
            let compressed = deflate(&data, Level::Fast);
            prop_assert_eq!(inflate(&compressed, LIMIT).unwrap(), data);
        }

        // The block cost worked out from the histogram is the cost of
        // walking the tokens, under the fixed code and under the code built
        // for them; and the planned dynamic block is exactly as long as
        // its cost says.
        #[test]
        fn histogram_cost_equals_token_walk(
            raw in proptest::collection::vec(
                (0u8..3, any::<u8>(), 3u16..=258, 1u16..=32768), 0..600),
        ) {
            let tokens: Vec<Token> =
                raw.into_iter().map(|(k, b, l, d)| token(k, b, l, d)).collect();
            let (lit_freq, dist_freq) = frequencies(&tokens);
            prop_assert_eq!(
                body_cost_bits(&lit_freq, &dist_freq, &FIXED_LITLEN_LENS, &FIXED_DIST_LENS),
                token_cost_bits(&tokens, &FIXED_LITLEN_LENS, &FIXED_DIST_LENS)
            );
            let mut lit_lens = [0u8; 286];
            let mut dist_lens = [0u8; 30];
            build_lengths(&lit_freq, 15, &mut lit_lens);
            build_lengths(&dist_freq, 15, &mut dist_lens);
            let body = body_cost_bits(&lit_freq, &dist_freq, &lit_lens, &dist_lens);
            prop_assert_eq!(body, token_cost_bits(&tokens, &lit_lens, &dist_lens));
            if dist_lens.iter().all(|&l| l == 0) {
                dist_lens[0] = 1;
            }
            let header = DynamicHeader::plan(&lit_lens, &dist_lens);
            let mut w = BitWriter::new();
            header.write(&mut w);
            write_tokens(
                &mut w,
                &tokens,
                &EncTable::from_lens(&lit_lens),
                &EncTable::from_lens(&dist_lens),
            );
            prop_assert_eq!(w.finish().len(), (header.bits + body).div_ceil(8));
        }

        // Adversarial repeats: short periods, period changes, and runs that
        // straddle the MAX_MATCH boundary must all round-trip.
        #[test]
        fn adversarial_repeats_round_trip(
            period in 1usize..12,
            reps in 1usize..600,
            tail in proptest::collection::vec(any::<u8>(), 0..32),
            level in (0usize..3).prop_map(|i| [Level::Fast, Level::Default, Level::Best][i]),
        ) {
            let unit: Vec<u8> = (0..period).map(|i| (i * 37 + 11) as u8).collect();
            let mut data: Vec<u8> = unit.iter().cycle().take(period * reps).copied().collect();
            data.extend_from_slice(&tail);
            let compressed = deflate(&data, level);
            prop_assert_eq!(inflate(&compressed, LIMIT).unwrap(), data);
        }
    }

    fn round_trip(data: &[u8], level: Level) {
        let compressed = deflate(data, level);
        let back = inflate(&compressed, LIMIT).unwrap();
        assert_eq!(
            back,
            data,
            "round-trip failed at {level:?} for {} bytes",
            data.len()
        );
    }

    #[test]
    fn empty_input() {
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            round_trip(b"", level);
        }
    }

    #[test]
    fn tiny_inputs() {
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            round_trip(b"a", level);
            round_trip(b"ab", level);
            round_trip(b"abc", level);
        }
    }

    #[test]
    fn repetitive_text_compresses() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(200);
        for level in [Level::Fast, Level::Default, Level::Best] {
            let compressed = deflate(&data, level);
            assert!(
                compressed.len() < data.len() / 4,
                "{level:?}: {} -> {}",
                data.len(),
                compressed.len()
            );
            round_trip(&data, level);
        }
    }

    #[test]
    fn long_runs() {
        let data = vec![0u8; 100_000];
        round_trip(&data, Level::Default);
        let compressed = deflate(&data, Level::Default);
        assert!(
            compressed.len() < 200,
            "all-zero should shrink massively: {}",
            compressed.len()
        );
    }

    #[test]
    fn incompressible_data() {
        // Pseudo-random bytes: stored block should win, round trip must hold.
        let mut state = 0x1234_5678u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for level in [Level::Fast, Level::Default, Level::Best] {
            let compressed = deflate(&data, level);
            round_trip(&data, level);
            assert!(compressed.len() < data.len() + data.len() / 100 + 64);
        }
    }

    #[test]
    fn structured_screen_like_data() {
        // Synthetic scanline-ish content: gradients + repeated UI chrome.
        let mut data = Vec::new();
        for row in 0..200u32 {
            for col in 0..300u32 {
                data.push((col % 17) as u8);
                data.push((row % 13) as u8);
                data.push(200);
            }
        }
        round_trip(&data, Level::Default);
        round_trip(&data, Level::Best);
        let c = deflate(&data, Level::Default);
        assert!(c.len() < data.len() / 5);
    }

    #[test]
    fn exactly_window_sized_and_larger() {
        let pattern: Vec<u8> = (0..=255u8).collect();
        let data: Vec<u8> = pattern
            .iter()
            .cycle()
            .take(WINDOW_SIZE + 1000)
            .copied()
            .collect();
        round_trip(&data, Level::Default);
    }

    #[test]
    fn max_match_lengths_exercised() {
        // 300 identical bytes force a 258-length match + continuation.
        let data = vec![7u8; 300];
        round_trip(&data, Level::Default);
        round_trip(&data, Level::Fast);
    }

    #[test]
    fn store_level_is_stored() {
        let data = b"hello world".repeat(10);
        let c = deflate(&data, Level::Store);
        // 1 stored block: 5 bytes overhead.
        assert_eq!(c.len(), data.len() + 5);
        round_trip(&data, Level::Store);
    }

    #[test]
    fn rle_code_lengths_round_trip_structure() {
        let lens = [
            0u8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 5, 5, 5, 5, 5, 5, 5, 0, 0, 0, 3,
        ];
        let rle = rle_code_lengths(&lens);
        // Expand back.
        let mut expanded: Vec<u8> = Vec::new();
        for &(sym, extra) in rle.items() {
            match sym {
                16 => {
                    let last = *expanded.last().unwrap();
                    for _ in 0..(3 + extra) {
                        expanded.push(last);
                    }
                }
                17 => expanded.resize(expanded.len() + 3 + extra as usize, 0),
                18 => expanded.resize(expanded.len() + 11 + extra as usize, 0),
                v => expanded.push(v),
            }
        }
        assert_eq!(expanded, lens);
    }
}
