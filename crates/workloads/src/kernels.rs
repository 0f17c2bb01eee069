//! Reusable kernel generators.
//!
//! Each generator appends one self-contained loop nest (with its data
//! segments) to an [`Asm`] under construction. Register use is confined
//! to `x1..=x20` and `f1..=f10`; callers that wrap kernels in outer loops
//! should use registers above `x24`.

use gm_isa::{Asm, DataSegment, Reg};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Builds a `count`-slot singly linked ring of cache-line-sized nodes at
/// `base`, in a random (seeded) order. Each node holds `[next_addr,
/// payload]` in its first 16 bytes; payloads are uniform in `0..256`.
pub fn linked_ring(a: &mut Asm, rng: &mut StdRng, base: u64, count: u64) {
    let mut order: Vec<u64> = (0..count).collect();
    order.shuffle(rng);
    let n = count as usize;
    let words = (0..n).flat_map(|i| {
        let (cur, next) = (order[i] as usize, order[(i + 1) % n]);
        [
            (cur * 8, base + next * 64),
            (cur * 8 + 1, rng.gen_range(0..256)),
        ]
    });
    a.data(DataSegment::sparse(base, n * 8, words));
}

/// Sequential sweep(s) over an array, accumulating into `x3`/`f3`.
///
/// Models streaming FP/integer codes (lbm, bwaves, libquantum): large
/// footprint, perfectly strided — prefetcher- and DRAM-bound.
pub fn stream_sum(a: &mut Asm, base: u64, words: u64, passes: u64, stride_words: u64, fp: bool) {
    assert!(words > 0 && passes > 0 && stride_words > 0);
    let word = |i: usize| if fp { (i as f64).to_bits() } else { i as u64 };
    a.data(DataSegment::from_fn(base, words.min(65536) as usize, word));
    let (ptr, end, pass, npass, v) = (Reg::x(1), Reg::x(2), Reg::x(4), Reg::x(5), Reg::x(6));
    let acc = if fp { Reg::f(3) } else { Reg::x(3) };
    a.li(pass, 0);
    a.li(npass, passes as i64);
    let outer = a.here();
    a.li(ptr, base as i64);
    a.li(end, (base + 8 * words) as i64);
    let inner = a.here();
    a.ld(v, ptr, 0);
    if fp {
        a.fadd(acc, acc, v);
    } else {
        a.add(acc, acc, v);
    }
    a.addi(ptr, ptr, (8 * stride_words) as i64);
    a.bltu(ptr, end, inner);
    a.addi(pass, pass, 1);
    a.bne(pass, npass, outer);
}

/// Dependent pointer chase over a [`linked_ring`], with a rare
/// data-dependent side branch whose condition hangs on a *second* slow
/// load, so the pipeline runs far ahead down the chase while it
/// resolves.
///
/// This is the mcf/gcc character: the occasionally-mispredicted branch
/// squashes wrong-path work that *would have been useful* — under the
/// unsafe baseline those future nodes stay in the L1, under GhostMinion
/// they are wiped (the source of mcf's ≈30% overhead in Fig. 6).
///
/// `rare_threshold` (0–255) sets the side-branch take rate; payloads are
/// uniform, so `20` ≈ 8%.
pub fn pointer_chase(
    a: &mut Asm,
    rng: &mut StdRng,
    base: u64,
    nodes: u64,
    hops: u64,
    rare_threshold: u8,
    weights_base: u64,
) {
    linked_ring(a, rng, base, nodes);
    // Weight table mirrors the node arena one line per node, so the
    // weight load is as cold as the chase itself: the rare branch stays
    // unresolved for a full memory latency while the front-end
    // speculates ahead down the chase.
    let arena_bytes = nodes * 64;
    let wcount = nodes.min(65536) as usize;
    let weights = (0..wcount).map(|i| (i * 8, rng.gen_range(0..256)));
    a.data(DataSegment::sparse(weights_base, wcount * 8, weights));
    // Second weight level, dependent on the first: the rare branch's
    // condition resolves only after TWO serialised cold misses, so the
    // front-end speculates ~2 chase hops ahead before it can squash.
    let weights2_base = weights_base + arena_bytes;
    let weights2 = (0..wcount).map(|i| (i * 8, rng.gen_range(0..256)));
    a.data(DataSegment::sparse(weights2_base, wcount * 8, weights2));

    let (node, payload, weight, i, n, acc, thr, tmp) = (
        Reg::x(1),
        Reg::x(2),
        Reg::x(6),
        Reg::x(4),
        Reg::x(5),
        Reg::x(3),
        Reg::x(7),
        Reg::x(8),
    );
    a.li(node, base as i64);
    a.li(i, 0);
    a.li(n, hops as i64);
    a.li(thr, rare_threshold as i64);
    a.li(Reg::x(9), (arena_bytes - 1) as i64 & !63);
    let top = a.here();
    let rare = a.label();
    let cont = a.label();
    a.ld(payload, node, 8);
    // First slow load: the node's weight line — cold like the chase.
    a.sub(tmp, node, Reg::ZERO);
    a.addi(tmp, tmp, -(base as i64));
    a.and(tmp, tmp, Reg::x(9));
    a.addi(tmp, tmp, weights_base as i64);
    a.ld(weight, tmp, 0);
    // Second slow load depends on the first: addr = w2[(off + w1*64) & mask].
    let tmp2 = Reg::x(10);
    a.slli(tmp2, weight, 6);
    a.add(tmp2, tmp2, tmp);
    a.addi(tmp2, tmp2, -(weights_base as i64));
    a.and(tmp2, tmp2, Reg::x(9));
    a.addi(tmp2, tmp2, (weights_base + arena_bytes) as i64);
    a.ld(weight, tmp2, 0);
    // Rare branch on the doubly-slow load chain: resolves ~2 memory
    // latencies after fetch has speculated ahead down the chase.
    a.blt(weight, thr, rare);
    a.bind(cont);
    a.ld(node, node, 0); // chase
    a.addi(i, i, 1);
    a.bne(i, n, top);
    let done = a.label();
    a.j(done);
    a.bind(rare);
    // Small amount of real work in the rare handler, then continue.
    a.add(acc, acc, weight);
    a.xor(acc, acc, payload);
    a.j(cont);
    a.bind(done);
}

/// Indexed gather: `acc += data[idx[i]]` — every data address depends on
/// a prior load, the STT transmitter worst case (astar, omnetpp,
/// xalancbmk).
pub fn indexed_gather(
    a: &mut Asm,
    rng: &mut StdRng,
    idx_base: u64,
    data_base: u64,
    n_idx: u64,
    data_words: u64,
    passes: u64,
) {
    let index = |_| rng.gen_range(0..data_words);
    a.data(DataSegment::from_fn(idx_base, n_idx as usize, index));
    let data_count = data_words.min(65536) as usize;
    a.data(DataSegment::from_fn(data_base, data_count, |i| {
        3 * i as u64
    }));

    let (ip, iend, di, v, acc, pass, npass) = (
        Reg::x(1),
        Reg::x(2),
        Reg::x(4),
        Reg::x(5),
        Reg::x(3),
        Reg::x(6),
        Reg::x(7),
    );
    a.li(pass, 0);
    a.li(npass, passes as i64);
    let outer = a.here();
    a.li(ip, idx_base as i64);
    a.li(iend, (idx_base + 8 * n_idx) as i64);
    let inner = a.here();
    a.ld(di, ip, 0); // load index
    a.slli(di, di, 3);
    a.addi(di, di, data_base as i64);
    a.ld(v, di, 0); // dependent (tainted-address) load
    a.add(acc, acc, v);
    a.addi(ip, ip, 8);
    a.bltu(ip, iend, inner);
    a.addi(pass, pass, 1);
    a.bne(pass, npass, outer);
}

/// Branch-entropy kernel: walks a random word array and takes a chain of
/// data-dependent branches per element (gobmk/sjeng character: game-tree
/// evaluation with hard-to-predict control flow).
pub fn branchy(a: &mut Asm, rng: &mut StdRng, base: u64, words: u64, passes: u64) {
    a.data(DataSegment::from_fn(base, words as usize, |_| rng.gen()));
    let (ptr, end, v, acc, b, pass, npass) = (
        Reg::x(1),
        Reg::x(2),
        Reg::x(4),
        Reg::x(3),
        Reg::x(5),
        Reg::x(6),
        Reg::x(7),
    );
    a.li(pass, 0);
    a.li(npass, passes as i64);
    let outer = a.here();
    a.li(ptr, base as i64);
    a.li(end, (base + 8 * words) as i64);
    let inner = a.here();
    a.ld(v, ptr, 0);
    // One genuinely hard branch (~6% taken on random data) plus two
    // highly skewed ones the predictor learns, giving a realistic
    // game-tree misprediction rate rather than coin flips.
    let skip0 = a.label();
    a.andi(b, v, 15);
    a.bne(b, Reg::ZERO, skip0); // ~94% taken, mispredicts ~6%
    a.add(acc, acc, v);
    a.xori(acc, acc, 0x55);
    a.bind(skip0);
    for shift in [7i64, 13] {
        let skip = a.label();
        a.srli(b, v, shift);
        a.andi(b, b, 255);
        a.beq(b, Reg::ZERO, skip); // ~0.4% taken: easily learned
        a.addi(acc, acc, 1);
        a.bind(skip);
        a.add(acc, acc, b);
    }
    a.addi(ptr, ptr, 8);
    a.bltu(ptr, end, inner);
    a.addi(pass, pass, 1);
    a.bne(pass, npass, outer);
}

/// FP compute chain with periodic non-pipelined divides/square roots
/// (povray/calculix character; the §4.9 structural-hazard units).
pub fn fp_compute(a: &mut Asm, iters: u64, div_every: u64) {
    assert!(div_every > 0);
    let (i, n) = (Reg::x(1), Reg::x(2));
    let (x, y, z) = (Reg::f(1), Reg::f(2), Reg::f(3));
    a.li(i, 0);
    a.li(n, iters as i64);
    a.li(Reg::x(3), 3.0f64.to_bits() as i64);
    a.mv(Reg::x(4), Reg::x(3));
    a.emit(gm_isa::Inst::new(
        gm_isa::Op::Fadd,
        x,
        Reg::x(3),
        Reg::ZERO,
        0,
    ));
    a.emit(gm_isa::Inst::new(
        gm_isa::Op::Fadd,
        y,
        Reg::x(4),
        Reg::ZERO,
        0,
    ));
    let (dcnt, dmax) = (Reg::x(5), Reg::x(6));
    a.li(dcnt, 0);
    a.li(dmax, div_every as i64);
    let top = a.here();
    a.fmul(z, x, y);
    a.fadd(x, z, y);
    a.fsub(y, x, z);
    a.addi(dcnt, dcnt, 1);
    let skip = a.label();
    a.bne(dcnt, dmax, skip);
    a.fdiv(z, x, y);
    a.fsqrt(x, z);
    a.li(dcnt, 0);
    a.bind(skip);
    a.addi(i, i, 1);
    a.bne(i, n, top);
}

/// 2D five-point stencil over a row-major grid (cactusADM, zeusmp,
/// leslie3d character: multiple concurrent streams, moderate reuse).
pub fn stencil(a: &mut Asm, base: u64, cols: u64, rows: u64, passes: u64) {
    assert!(rows >= 3 && cols >= 3);
    let words = rows * cols;
    let word = |i: usize| ((i % 97) as f64).to_bits();
    a.data(DataSegment::from_fn(base, words.min(65536) as usize, word));
    let (ptr, end, pass, npass) = (Reg::x(1), Reg::x(2), Reg::x(6), Reg::x(7));
    let (up, dn, lf, rt, c) = (Reg::f(1), Reg::f(2), Reg::f(3), Reg::f(4), Reg::f(5));
    let row_bytes = (cols * 8) as i64;
    a.li(pass, 0);
    a.li(npass, passes as i64);
    let outer = a.here();
    a.li(ptr, (base + cols * 8 + 8) as i64); // (1,1)
    a.li(end, (base + (rows - 1) * cols * 8 - 8) as i64);
    let inner = a.here();
    a.ld(c, ptr, 0);
    a.ld(lf, ptr, -8);
    a.ld(rt, ptr, 8);
    a.ld(up, ptr, -row_bytes);
    a.ld(dn, ptr, row_bytes);
    a.fadd(c, c, lf);
    a.fadd(c, c, rt);
    a.fadd(c, c, up);
    a.fadd(c, c, dn);
    a.st(c, ptr, 0);
    a.addi(ptr, ptr, 8);
    a.bltu(ptr, end, inner);
    a.addi(pass, pass, 1);
    a.bne(pass, npass, outer);
}

/// Dynamic-programming inner loop (hmmer/h264ref character): sequential
/// loads with short dependent ALU chains and very good locality.
pub fn dp_inner(a: &mut Asm, base: u64, words: u64, passes: u64) {
    let word = |i: usize| (i as u64 * 7 + 13) & 0xffff;
    a.data(DataSegment::from_fn(base, words as usize, word));
    let (ptr, end, v, m, acc, pass, npass, t) = (
        Reg::x(1),
        Reg::x(2),
        Reg::x(4),
        Reg::x(5),
        Reg::x(3),
        Reg::x(6),
        Reg::x(7),
        Reg::x(8),
    );
    a.li(pass, 0);
    a.li(npass, passes as i64);
    let outer = a.here();
    a.li(ptr, base as i64);
    a.li(end, (base + 8 * words) as i64);
    a.li(m, 0);
    let inner = a.here();
    a.ld(v, ptr, 0);
    a.add(t, v, acc);
    // Branch-free max: m = max(m, t).
    a.slt(Reg::x(9), m, t);
    a.mul(Reg::x(10), Reg::x(9), t);
    a.xori(Reg::x(9), Reg::x(9), 1);
    a.mul(Reg::x(11), Reg::x(9), m);
    a.add(m, Reg::x(10), Reg::x(11));
    a.add(acc, acc, v);
    a.srli(acc, acc, 1);
    a.addi(ptr, ptr, 8);
    a.bltu(ptr, end, inner);
    a.addi(pass, pass, 1);
    a.bne(pass, npass, outer);
}

/// Integer divide pressure (SpectreRewind's contention unit), mixed into
/// an otherwise ALU-bound loop.
pub fn int_div_mix(a: &mut Asm, iters: u64) {
    let (i, n, x, y, q) = (Reg::x(1), Reg::x(2), Reg::x(3), Reg::x(4), Reg::x(5));
    a.li(i, 0);
    a.li(n, iters as i64);
    a.li(x, 982_451_653);
    a.li(y, 57);
    let top = a.here();
    a.div(q, x, y);
    a.mul(x, q, y);
    a.addi(x, x, 17);
    a.addi(i, i, 1);
    a.bne(i, n, top);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn assemble(build: impl FnOnce(&mut Asm, &mut StdRng)) -> gm_isa::Program {
        let mut a = Asm::new("k");
        let mut r = rng();
        build(&mut a, &mut r);
        a.halt();
        let p = a.assemble();
        assert!(p.validate().is_ok());
        p
    }

    #[test]
    fn linked_ring_is_a_single_cycle() {
        let mut a = Asm::new("ring");
        let mut r = rng();
        linked_ring(&mut a, &mut r, 0x1000, 16);
        a.halt();
        let p = a.assemble();
        // Walk the ring functionally from the data segment.
        let seg = &p.data[0];
        let read = |addr: u64| {
            let off = (addr - seg.base) as usize;
            u64::from_le_bytes(seg.bytes[off..off + 8].try_into().unwrap())
        };
        let mut seen = std::collections::HashSet::new();
        let mut node = 0x1000u64;
        for _ in 0..16 {
            assert!(seen.insert(node), "ring revisited {node:#x} early");
            node = read(node);
        }
        assert_eq!(node, 0x1000, "ring must close after 16 hops");
    }

    #[test]
    fn ring_payloads_are_byte_range() {
        let mut a = Asm::new("ring");
        let mut r = rng();
        linked_ring(&mut a, &mut r, 0x1000, 64);
        a.halt();
        let p = a.assemble();
        let seg = &p.data[0];
        for i in 0..64usize {
            let off = i * 64 + 8;
            let v = u64::from_le_bytes(seg.bytes[off..off + 8].try_into().unwrap());
            assert!(v < 256);
        }
    }

    #[test]
    fn kernels_assemble() {
        assemble(|a, _| stream_sum(a, 0x10_0000, 512, 2, 1, false));
        assemble(|a, _| stream_sum(a, 0x10_0000, 512, 2, 8, true));
        assemble(|a, r| pointer_chase(a, r, 0x20_0000, 64, 100, 20, 0x30_0000));
        assemble(|a, r| indexed_gather(a, r, 0x40_0000, 0x50_0000, 128, 1024, 2));
        assemble(|a, r| branchy(a, r, 0x60_0000, 256, 2));
        assemble(|a, _| fp_compute(a, 100, 5));
        assemble(|a, _| stencil(a, 0x70_0000, 32, 16, 2));
        assemble(|a, _| dp_inner(a, 0x80_0000, 256, 2));
        assemble(|a, _| int_div_mix(a, 50));
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let p1 = assemble(|a, r| pointer_chase(a, r, 0x20_0000, 64, 100, 20, 0x30_0000));
        let p2 = assemble(|a, r| pointer_chase(a, r, 0x20_0000, 64, 100, 20, 0x30_0000));
        assert_eq!(p1, p2);
    }
}
