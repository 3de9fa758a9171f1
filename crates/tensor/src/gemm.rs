//! Cache-blocked, register-tiled GEMM — the compute backend behind every
//! transpose flavour of [`crate::matmul`] and, through `im2col` lowering,
//! every convolution in the repo.
//!
//! Structure (classic BLIS-style three-level blocking, all safe Rust):
//!
//! * The K dimension is split into panels of `KC`. For each panel the whole
//!   B slab is packed once into `NR`-wide column strips (k-major within a
//!   strip), shared read-only by all workers.
//! * The M dimension is split across workers of the shared pool
//!   ([`crate::parallel`]); each worker owns a contiguous row-block of C, so
//!   no synchronization is needed on the output.
//! * Within a worker, M is blocked by `MC`; each `MC × KC` block of A is
//!   packed into `MR`-tall row strips, then an `MR × NR` register-tile
//!   micro-kernel walks the packed panels. The safe micro-kernel's inner
//!   loops have constant trip counts over contiguous slices (k loop
//!   unrolled ×4), which the autovectorizer turns into wide FMA code under
//!   `-C target-cpu=native`; with the `simd` cargo feature on an AVX2+FMA
//!   x86-64 host, explicit-intrinsics 6×16 kernels ([`crate::simd`]) run
//!   instead — **bit-identical** by construction (same per-element FMA
//!   sequence). Which arm runs is the calling thread's [`Kernel`], part of
//!   its installed [`Backend`]: by default the best arm the build and CPU
//!   support (runtime-detected), with the safe kernel as the universal
//!   fallback.
//!
//! Packing absorbs transposition: both A and B are described by arbitrary
//! (row, column) strides, so NT/TN/TT flavours cost the same as NN and the
//! micro-kernel only ever sees contiguous data.
//!
//! Numerics: within one K panel the per-element accumulation order is the
//! same k-ascending order as the scalar reference; splitting K into panels
//! (K > `KC`) and the use of fused multiply-add reassociate/round
//! differently at the 1e-7-relative level. Kernel-parity tests in
//! `tests/kernel_parity.rs` pin this contract.

use crate::parallel::{self, Backend};
use std::cell::RefCell;
use std::sync::OnceLock;
use std::thread::LocalKey;

/// The GEMM arm a [`Backend`] runs, slowest to fastest.
///
/// Every arm but [`Kernel::Reference`] takes the blocked, packed path and
/// produces bit-identical results (one fused multiply-add per output
/// element per k, k ascending — see the `simd` module); they differ only in
/// throughput. `Reference` routes every GEMM through the seed's scalar
/// loop — the baseline of the benches' `speedup_vs_scalar` rows — and is
/// bitwise [`crate::matmul_reference`]. [`Backend::with_kernel`] caps a
/// request at [`Kernel::best`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kernel {
    /// The seed's scalar i-k-j loop, serial within each GEMM.
    Reference,
    /// The safe register-tile micro-kernel, autovectorized.
    Safe,
    /// The explicit AVX2+FMA micro-kernel (`simd` feature).
    Avx2,
    /// The explicit AVX-512 micro-kernel (`simd` feature).
    Avx512,
}

impl Kernel {
    /// The fastest arm this build and CPU support: AVX-512, else AVX2+FMA,
    /// else safe.
    pub fn best() -> Self {
        if !simd_available() {
            Kernel::Safe
        } else if avx512_available() {
            Kernel::Avx512
        } else {
            Kernel::Avx2
        }
    }
}

/// Whether the explicit AVX2+FMA micro-kernel is compiled in (`simd`
/// feature, `x86_64` target) *and* supported by the running CPU.
pub fn simd_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        crate::simd::detected()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Whether GEMMs on the calling thread use an explicit-SIMD micro-kernel
/// (its [`Backend`] runs [`Kernel::Avx2`] or [`Kernel::Avx512`]).
pub fn simd_enabled() -> bool {
    Backend::current().kernel() >= Kernel::Avx2
}

/// Whether the AVX-512 micro-kernel arm is compiled in (`simd` feature,
/// `x86_64` target) *and* supported by the running CPU (`avx512f`).
pub fn avx512_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        crate::simd::detected_avx512()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Whether GEMMs on the calling thread use the AVX-512 micro-kernel arm.
pub fn avx512_enabled() -> bool {
    Backend::current().kernel() == Kernel::Avx512
}

/// Micro-tile height (rows of C held in registers). With `NR = 16` the
/// accumulator occupies 12 256-bit registers — enough independent FMA
/// chains to hide the FMA latency without spilling.
pub(crate) const MR: usize = 6;
/// Micro-tile width (columns of C held in registers): two 256-bit `f32`
/// vectors per row. Empirically faster than 512-bit tiles on the
/// virtualized Xeons this repo targets (wide vectors downclock).
pub(crate) const NR: usize = 16;
/// K-dimension panel length. Large panels amortize the accumulator
/// write-back; the packed `MR × KC` A strip (18 KiB) stays L1-resident
/// while the B strip streams from L2. Tuned empirically at 256³–512³.
const KC: usize = 768;
/// M-dimension block height per packing round: an `MC × KC` packed A block
/// is ~216 KiB, comfortably L2-resident.
const MC: usize = 72;

/// Below this many multiply-adds the packing overhead outweighs the win and
/// the scalar reference kernel is faster.
const BLOCKED_THRESHOLD: usize = 48 * 48 * 48;

/// Most packed-B strips processed per sweep of the packed-A block, and the
/// packed-B byte budget a group must fit in (picked against a 48 KiB L1d:
/// the group's B panels plus one `MR × kb` A panel, the accumulator tiles
/// and the active C rows must all stay resident). The effective group
/// width is `min(NB_GROUP, L1_GROUP_BUDGET / strip_bytes)`, so long-K
/// panels (`kb` near [`KC`], where one strip alone approaches the budget)
/// degrade gracefully to width 1 — exactly the ungrouped interior.
const NB_GROUP: usize = 3;
const L1_GROUP_BUDGET: usize = 36 * 1024;

/// B strips per packed-A sweep for a `kb`-row panel (see [`NB_GROUP`]).
///
/// The AVX-512 arm opts out: measured on the dev host, its kernel is fast
/// enough that the grouped order's extra L1 pressure (two B panels + the
/// widened accumulator set live at once) costs ~20% — while the prefetcher
/// already hides the packed-A streaming the grouping exists to save. The
/// safe/AVX2 paths keep the grouping: neutral where prefetch covers L2
/// traffic, a win where it does not (the bandwidth-constrained hosts the
/// blocking parameters are sized for).
fn group_width(kb: usize, kernel: Kernel) -> usize {
    if kernel == Kernel::Avx512 {
        return 1;
    }
    NB_GROUP
        .min(L1_GROUP_BUDGET / (kb * NR * size_of::<f32>()))
        .max(1)
}

thread_local! {
    /// Per-thread packed-A scratch, reused across GEMM calls. The packed-A
    /// block is ~216 KiB — past the allocator's mmap threshold — so a fresh
    /// `vec!` per call costs a page-fault storm that the keep-alive worker
    /// pool would otherwise pay on every region.
    static PACK_A_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed-B scratch; same rationale as [`PACK_A_SCRATCH`].
    static PACK_B_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on a thread-local scratch slice of exactly `len` elements.
///
/// Contents are **unspecified on entry** — `pack_a`/`pack_b` overwrite
/// every slot the kernels later read (tail strips are zero-padded
/// explicitly), so stale data from a previous GEMM can never leak into a
/// result. If the slot is already borrowed, falls back to a fresh
/// allocation rather than panicking. Re-entrancy is real under
/// hierarchical nested scheduling: a GEMM's submitter *helps* while
/// waiting on its region latch (see `pool::run_region`), and a stolen job
/// can open another GEMM on this very thread while the outer one's scratch
/// is still borrowed. The fallback costs an allocation, never correctness
/// — packing layout is identical either way.
fn with_pack_scratch<R>(
    key: &'static LocalKey<RefCell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    key.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            f(&mut buf[..len])
        }
        Err(_) => f(&mut vec![0.0f32; len]),
    })
}

/// Minimum C rows per worker before the M dimension is split across
/// threads; keeps per-thread work well above spawn cost.
const ROWS_PER_WORKER_MIN: usize = 48;

/// C rows per pool chunk of the tiny-K path ([`gemm_tiny_k`]).
const TINY_K_ROWS: usize = 256;

/// A matrix operand view: base slice plus arbitrary row/column strides.
///
/// `elem(i, j) = data[i * rs + j * cs]` for the logical (non-transposed)
/// GEMM operand shape. A transposed input is expressed by swapping strides.
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// A row-major `(rows, cols)` view.
    pub(crate) fn row_major(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            rs: cols,
            cs: 1,
        }
    }

    /// The transpose of a row-major `(rows, cols)` view: logical element
    /// `(i, j)` reads `data[j * cols + i]`.
    pub(crate) fn transposed(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            rs: 1,
            cs: cols,
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }

    /// The view of rows `row0..` of this operand.
    fn rows_from(self, row0: usize) -> Self {
        Self {
            data: &self.data[row0 * self.rs..],
            ..self
        }
    }
}

/// Scalar reference kernel, stride-general: `out += A × B` in i-k-j order.
///
/// This is the seed implementation's loop nest, kept as the bit-level
/// baseline for parity tests and benchmark comparisons.
pub(crate) fn gemm_reference(m: usize, k: usize, n: usize, a: MatRef, b: MatRef, out: &mut [f32]) {
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        for kk in 0..k {
            let aik = a.at(i, kk);
            if aik == 0.0 {
                continue;
            }
            let crow = &mut out[i * n..(i + 1) * n];
            if b.cs == 1 {
                let brow = &b.data[kk * b.rs..kk * b.rs + n];
                for (c, &bkj) in crow.iter_mut().zip(brow.iter()) {
                    *c += aik * bkj;
                }
            } else {
                for (j, c) in crow.iter_mut().enumerate() {
                    *c += aik * b.at(kk, j);
                }
            }
        }
    }
}

/// Packs the `kb × n` slab of B starting at row `kc` into `NR`-wide strips:
/// `packed[strip][kk][jr]` with the tail strip zero-padded to `NR`.
///
/// Row-major B (`cs == 1`, every GEMM flavour except `nt`/`tt`) takes a
/// `copy_from_slice` fast path: each strip row is one contiguous 64-byte
/// copy instead of `NR` strided element reads. Same elements, same slots —
/// packing layout is not part of the numeric contract.
fn pack_b(b: MatRef, kc: usize, kb: usize, n: usize, packed: &mut [f32]) {
    debug_assert_eq!(packed.len(), n.div_ceil(NR) * kb * NR);
    for (strip, panel) in packed.chunks_mut(kb * NR).enumerate() {
        let j0 = strip * NR;
        let jw = NR.min(n - j0);
        if b.cs == 1 {
            for (kk, row) in panel.chunks_mut(NR).enumerate() {
                let src = &b.data[(kc + kk) * b.rs + j0..(kc + kk) * b.rs + j0 + jw];
                row[..jw].copy_from_slice(src);
                row[jw..].fill(0.0);
            }
        } else {
            for (kk, row) in panel.chunks_mut(NR).enumerate() {
                for (jr, slot) in row.iter_mut().enumerate() {
                    *slot = if jr < jw { b.at(kc + kk, j0 + jr) } else { 0.0 };
                }
            }
        }
    }
}

/// Packs the `mb × kb` block of A at `(i0, kc)` into `MR`-tall strips:
/// `packed[strip][kk][ir]` with the tail strip zero-padded to `MR`.
///
/// Two fast paths mirror [`pack_b`]'s: row-major A (`cs == 1`, the
/// forward/`nt` flavours) walks each source row contiguously and scatters
/// into the L1-resident strip; column-major A (`rs == 1`, the `tn`
/// weight-gradient flavour) copies each strip column with one contiguous
/// `copy_from_slice`. Same elements, same slots either way.
fn pack_a(a: MatRef, i0: usize, mb: usize, kc: usize, kb: usize, packed: &mut [f32]) {
    debug_assert!(packed.len() >= mb.div_ceil(MR) * kb * MR);
    for (strip, panel) in packed.chunks_mut(kb * MR).take(mb.div_ceil(MR)).enumerate() {
        let r0 = strip * MR;
        let rh = MR.min(mb - r0);
        if a.cs == 1 {
            if rh < MR {
                panel.fill(0.0);
            }
            for ir in 0..rh {
                let src = &a.data[(i0 + r0 + ir) * a.rs + kc..(i0 + r0 + ir) * a.rs + kc + kb];
                for (kk, &v) in src.iter().enumerate() {
                    panel[kk * MR + ir] = v;
                }
            }
        } else if a.rs == 1 {
            for (kk, col) in panel.chunks_mut(MR).enumerate() {
                let base = (kc + kk) * a.cs + i0 + r0;
                col[..rh].copy_from_slice(&a.data[base..base + rh]);
                col[rh..].fill(0.0);
            }
        } else {
            for (kk, col) in panel.chunks_mut(MR).enumerate() {
                for (ir, slot) in col.iter_mut().enumerate() {
                    *slot = if ir < rh {
                        a.at(i0 + r0 + ir, kc + kk)
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// How many rank-1 updates the safe kernel's k loop processes per
/// iteration. `chunks_exact` hands the body compile-time-known sub-slices,
/// so the ×4 unroll costs no extra bounds checks and cannot reassociate:
/// each output element still receives its updates one at a time, k
/// ascending.
const KK_UNROLL: usize = 4;

/// The safe register-tile kernel: `acc[MR][NR] += Apanel × Bpanel` over
/// `kb` rank-1 updates on packed panels. Constant-size inner loops over
/// contiguous slices vectorize to FMA under `-C target-cpu=native`; the k
/// loop is unrolled ×[`KK_UNROLL`] to amortize loop control. Exactly one
/// `mul_add` per output element per k — the bit-parity contract shared
/// with the explicit-SIMD kernel ([`crate::simd`]).
#[inline(always)]
pub(crate) fn microkernel(kb: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    let a_main = a_panel[..kb * MR].chunks_exact(MR * KK_UNROLL);
    let b_main = b_panel[..kb * NR].chunks_exact(NR * KK_UNROLL);
    let a_tail = a_main.remainder();
    let b_tail = b_main.remainder();
    for (a4, b4) in a_main.zip(b_main) {
        for u in 0..KK_UNROLL {
            let av = &a4[u * MR..(u + 1) * MR];
            let bv = &b4[u * NR..(u + 1) * NR];
            for ir in 0..MR {
                let aik = av[ir];
                let row = &mut acc[ir];
                for jr in 0..NR {
                    row[jr] = aik.mul_add(bv[jr], row[jr]);
                }
            }
        }
    }
    for (av, bv) in a_tail.chunks_exact(MR).zip(b_tail.chunks_exact(NR)) {
        for ir in 0..MR {
            let aik = av[ir];
            let row = &mut acc[ir];
            for jr in 0..NR {
                row[jr] = aik.mul_add(bv[jr], row[jr]);
            }
        }
    }
}

/// Runs one register tile on the resolved kernel.
#[inline(always)]
fn run_microkernel(
    kernel: Kernel,
    kb: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    match kernel {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Kernel::Avx2 => crate::simd::microkernel_6x16(kb, a_panel, b_panel, acc),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Kernel::Avx512 => crate::simd::microkernel_6x16_avx512(kb, a_panel, b_panel, acc),
        // `Reference` never reaches the blocked path, and builds without
        // the SIMD arms cap every request at `Safe`.
        _ => microkernel(kb, a_panel, b_panel, acc),
    }
}

/// Computes one worker's row-range of C against the shared packed B panel
/// on the resolved `kernel`.
#[allow(clippy::too_many_arguments)] // a flat hot-path signature, called twice
fn gemm_rows(
    kernel: Kernel,
    a: MatRef,
    row0: usize,
    rows: usize,
    kc: usize,
    kb: usize,
    n: usize,
    packed_b: &[f32],
    out_rows: &mut [f32],
) {
    debug_assert_eq!(out_rows.len(), rows * n);
    let n_strips = n.div_ceil(NR);
    // L1-aware interior: walk B strips in groups of `gw` per sweep of the
    // packed-A block. The packed-A block (up to MC × kb ≈ 216 KiB) only
    // streams from L2 once per *group* instead of once per strip, while the
    // group's B panels (≤ L1_GROUP_BUDGET by construction) stay
    // L1-resident across the strip_a sweep. Every (strip_a, strip_b) tile
    // still gets exactly one full-`kb` kernel call, so the per-element FMA
    // chains — and therefore the results — are bit-identical to the
    // ungrouped order; tiles are disjoint, so visit order is free.
    let gw = group_width(kb, kernel);
    with_pack_scratch(&PACK_A_SCRATCH, MC.div_ceil(MR) * MR * kb, |packed_a| {
        let mut i0 = 0;
        while i0 < rows {
            let mb = MC.min(rows - i0);
            pack_a(a, row0 + i0, mb, kc, kb, packed_a);
            let mut gb = 0;
            while gb < n_strips {
                let g_count = gw.min(n_strips - gb);
                for strip_a in 0..mb.div_ceil(MR) {
                    let r0 = i0 + strip_a * MR;
                    let rh = MR.min(i0 + mb - r0);
                    let a_panel = &packed_a[strip_a * kb * MR..(strip_a + 1) * kb * MR];
                    let mut accs = [[[0.0f32; NR]; MR]; NB_GROUP];
                    for (g, acc) in accs.iter_mut().take(g_count).enumerate() {
                        let strip_b = gb + g;
                        let b_panel = &packed_b[strip_b * kb * NR..(strip_b + 1) * kb * NR];
                        run_microkernel(kernel, kb, a_panel, b_panel, acc);
                    }
                    for (g, acc) in accs.iter().take(g_count).enumerate() {
                        let j0 = (gb + g) * NR;
                        let jw = NR.min(n - j0);
                        for ir in 0..rh {
                            let crow = &mut out_rows[(r0 + ir) * n + j0..(r0 + ir) * n + j0 + jw];
                            for (c, &v) in crow.iter_mut().zip(acc[ir].iter()) {
                                *c += v;
                            }
                        }
                    }
                }
                gb += g_count;
            }
            i0 += mb;
        }
    });
}

/// The kernel a GEMM of this shape runs on the blocked/packed path under
/// the calling thread's [`Backend`], or `None` when it takes the scalar
/// reference arithmetic instead — the decision [`gemm`] makes internally.
///
/// Tiny-K GEMMs (`k < 16`: DP-SGD's per-example rank-1 weight gradients,
/// a first convolution's `C_in·R·S = 9` patches) are short outer-product
/// accumulations, where the packing passes cost more than they save. They
/// run the reference kernel's arithmetic, row-parallel and over a
/// contiguous copy of B when large enough ([`gemm_tiny_k`]).
///
/// Exposed so callers that pre-pack B through a [`PackCache`] replicate the
/// same routing and therefore stay bit-identical with the unpacked entry
/// points for every shape.
pub(crate) fn blocked_kernel(m: usize, k: usize, n: usize) -> Option<Kernel> {
    let kernel = Backend::current().kernel();
    (kernel != Kernel::Reference && k >= 16 && m * k * n >= BLOCKED_THRESHOLD).then_some(kernel)
}

/// Blocked, packed, M-parallel GEMM: `out += A × B` where `A` is logically
/// `(m, k)` and `B` is `(k, n)` under their respective stride views, and
/// `out` is row-major `(m, n)`.
///
/// Falls back to the scalar reference below [`BLOCKED_THRESHOLD`]
/// multiply-adds or under [`Kernel::Reference`], and to its row-parallel
/// form ([`gemm_tiny_k`]) for larger `k < 16` GEMMs.
pub(crate) fn gemm(m: usize, k: usize, n: usize, a: MatRef, b: MatRef, out: &mut [f32]) {
    assert_eq!(out.len(), m * n, "output buffer shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kernel = Backend::current().kernel();
    if kernel == Kernel::Reference || m * k * n < BLOCKED_THRESHOLD {
        gemm_reference(m, k, n, a, b, out);
        return;
    }
    if k < 16 {
        gemm_tiny_k(k, n, a, b, out);
        return;
    }
    let threads = parallel::effective_threads().min(m.div_ceil(ROWS_PER_WORKER_MIN));
    let rows_per_worker = m.div_ceil(threads.max(1));
    with_pack_scratch(
        &PACK_B_SCRATCH,
        n.div_ceil(NR) * KC.min(k) * NR,
        |packed_b| {
            let mut kc = 0;
            while kc < k {
                let kb = KC.min(k - kc);
                let packed_len = n.div_ceil(NR) * kb * NR;
                pack_b(b, kc, kb, n, &mut packed_b[..packed_len]);
                let packed = &packed_b[..packed_len];
                if threads <= 1 {
                    gemm_rows(kernel, a, 0, m, kc, kb, n, packed, out);
                } else {
                    parallel::par_chunks_mut(out, rows_per_worker * n, |widx, out_rows| {
                        let row0 = widx * rows_per_worker;
                        let rows = out_rows.len() / n;
                        gemm_rows(kernel, a, row0, rows, kc, kb, n, packed, out_rows);
                    });
                }
                kc += kb;
            }
        },
    );
}

/// [`gemm_reference`] for a large GEMM with `k < 16`, split over the pool
/// in [`TINY_K_ROWS`]-row blocks of C. B is first copied into a contiguous
/// `(k, n)` buffer, so every block streams unit-stride B rows even when B
/// arrives transposed (`nt`, a convolution's forward GEMM). Each element of
/// C still takes the reference kernel's multiply-adds in the same order,
/// so the result is bitwise [`gemm_reference`]'s at every thread count.
fn gemm_tiny_k(k: usize, n: usize, a: MatRef, b: MatRef, out: &mut [f32]) {
    let b_rows: Vec<f32> = (0..k)
        .flat_map(|kk| (0..n).map(move |j| b.at(kk, j)))
        .collect();
    let b = MatRef::row_major(&b_rows, n);
    parallel::par_chunks_mut(out, TINY_K_ROWS * n, |blk, rows| {
        let a = a.rows_from(blk * TINY_K_ROWS);
        gemm_reference(rows.len() / n, k, n, a, b, rows);
    });
}

/// A B operand packed once into `NR`-wide strips for a caller-chosen panel
/// decomposition of K, so repeated GEMMs against the same B (or against
/// K-windows of it) skip the packing pass entirely.
///
/// The panel boundaries are part of the packed layout *and* of the numeric
/// contract: the blocked kernel accumulates `out += A × B` one panel at a
/// time, so two GEMMs agree bit-for-bit only when their panel decompositions
/// agree. [`PackedB::pack_segmented`] splits each `segment`-row slab of B at
/// multiples of `KC`, which reproduces [`gemm`]'s own split for any window
/// that is a whole number of segments — the property the fused convolution
/// backward relies on (per-example windows of the shared patch buffer).
#[derive(Clone, Debug)]
pub struct PackedB {
    k: usize,
    n: usize,
    /// Per panel: (global K offset, panel length, offset into `data`).
    panels: Vec<(usize, usize, usize)>,
    data: Vec<f32>,
}

impl PackedB {
    /// Packs all of B (`k × n` under the stride view) into strips, splitting
    /// K first at multiples of `segment` and then at multiples of `KC`
    /// within each segment.
    ///
    /// # Panics
    ///
    /// Panics if `segment` is zero or does not divide `k`.
    pub(crate) fn pack_segmented(b: MatRef, k: usize, n: usize, segment: usize) -> Self {
        assert!(
            segment > 0 && k.is_multiple_of(segment),
            "segment {segment} must divide K {k}"
        );
        let n_strips = n.div_ceil(NR);
        let mut panels = Vec::new();
        let mut data = Vec::new();
        let mut seg0 = 0;
        while seg0 < k {
            let mut kc = 0;
            while kc < segment {
                let kb = KC.min(segment - kc);
                let offset = data.len();
                data.resize(offset + n_strips * kb * NR, 0.0);
                pack_b(b, seg0 + kc, kb, n, &mut data[offset..]);
                panels.push((seg0 + kc, kb, offset));
                kc += kb;
            }
            seg0 += segment;
        }
        Self { k, n, panels, data }
    }
}

/// A lazily-initialized, shareable cache of a packed B operand.
///
/// DP-SGD(R) runs two backward passes over the same forward state. Every
/// GEMM whose B operand is unchanged between (and within) those passes —
/// the shared `im2col` patch buffer of the weight-gradient GEMMs, the
/// filter matrix of the data-gradient GEMM — packs B exactly once through
/// this handle and reuses the panels thereafter. The handle lives inside
/// the layer's forward cache, which is immutable for the lifetime of both
/// passes, so the cached pack can never go stale within a training step.
///
/// Thread-safe: concurrent first users (the per-example fan-out of the
/// `NormOnly` pass) race on a `OnceLock`; one packs, the rest block briefly
/// and share the result.
///
/// Besides the operand shape, every reuse revalidates a caller-supplied
/// content `token` (see `content_token`), so a cache keyed to data that
/// *can* change out from under it — the filter matrix of the data-gradient
/// GEMM, after an optimizer update mutates the weights — fails loudly
/// instead of silently computing against the stale pack.
#[derive(Clone, Debug, Default)]
pub struct PackCache {
    slot: OnceLock<(PackedB, u64)>,
}

impl PackCache {
    /// An empty cache; the first GEMM through it pays the packing pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the packed operand, packing it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the cache was initialized with a different shape or a
    /// different content `token` — the operand changed between uses.
    pub(crate) fn get_or_pack(
        &self,
        k: usize,
        n: usize,
        token: u64,
        pack: impl FnOnce() -> PackedB,
    ) -> &PackedB {
        let (pb, stored) = self.slot.get_or_init(|| (pack(), token));
        assert_eq!(
            (pb.k, pb.n),
            (k, n),
            "PackCache reused across operands of different shapes"
        );
        assert_eq!(
            *stored, token,
            "PackCache reused after its operand changed (stale pack)"
        );
        pb
    }
}

/// An order-sensitive FNV-1a hash of a slice's bit patterns, used as the
/// [`PackCache`] staleness token. One read-only pass — negligible next to
/// the GEMM the pack feeds, and exact: any in-place mutation of the operand
/// changes the token (up to 64-bit hash collisions).
pub fn content_token(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in data {
        h ^= u64::from(v.to_bits());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Blocked, M-parallel GEMM against pre-packed B panels covering the global
/// B-row window `lo..hi`: `out += A × B[lo..hi, :]`, where `A` is `(m,
/// hi-lo)` under its stride view, A's K axis is window-local, and `out` is
/// row-major `(m, pb.n)`.
///
/// The window must start and end on packed panel boundaries (any whole
/// number of segments of [`PackedB::pack_segmented`] qualifies). Routing is
/// the caller's job: take `kernel` from [`blocked_kernel`] and fall back to
/// [`gemm_reference`] on the raw operands when it is `None`, exactly as
/// [`gemm`] would.
pub(crate) fn gemm_packed_window(
    kernel: Kernel,
    m: usize,
    a: MatRef,
    pb: &PackedB,
    lo: usize,
    hi: usize,
    out: &mut [f32],
) {
    let n = pb.n;
    assert_eq!(out.len(), m * n, "output buffer shape mismatch");
    assert!(
        lo <= hi && hi <= pb.k,
        "window {lo}..{hi} outside K {}",
        pb.k
    );
    let threads = parallel::effective_threads().min(m.div_ceil(ROWS_PER_WORKER_MIN));
    let rows_per_worker = m.div_ceil(threads.max(1));
    let n_strips = n.div_ceil(NR);
    let mut covered = lo;
    for &(k0, kb, offset) in &pb.panels {
        if k0 + kb <= lo || k0 >= hi {
            continue;
        }
        assert!(
            k0 == covered && k0 + kb <= hi,
            "window {lo}..{hi} does not align with packed panel boundaries"
        );
        covered = k0 + kb;
        let panel = &pb.data[offset..offset + n_strips * kb * NR];
        let kc_local = k0 - lo;
        if threads <= 1 {
            gemm_rows(kernel, a, 0, m, kc_local, kb, n, panel, out);
        } else {
            parallel::par_chunks_mut(out, rows_per_worker * n, |widx, out_rows| {
                let row0 = widx * rows_per_worker;
                let rows = out_rows.len() / n;
                gemm_rows(kernel, a, row0, rows, kc_local, kb, n, panel, out_rows);
            });
        }
    }
    assert_eq!(covered, hi, "packed panels do not cover window {lo}..{hi}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DivaRng;

    fn dense(rows: usize, cols: usize, rng: &mut DivaRng) -> Vec<f32> {
        (0..rows * cols).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn blocked_matches_reference_across_shapes() {
        let mut rng = DivaRng::seed_from_u64(42);
        // Shapes straddling the strip/panel boundaries: exact multiples,
        // off-by-one, tiny, and larger-than-one-panel K.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (MR, KC, NR),
            (MR + 1, KC + 3, NR + 1),
            (65, 300, 47),
            (130, 70, 33),
        ] {
            let a = dense(m, k, &mut rng);
            let b = dense(k, n, &mut rng);
            let mut fast = vec![0.0f32; m * n];
            let mut slow = vec![0.0f32; m * n];
            // Call the blocked path directly (below threshold the public
            // entry would route to the reference anyway).
            let av = MatRef::row_major(&a, k);
            let bv = MatRef::row_major(&b, n);
            gemm_reference(m, k, n, av, bv, &mut slow);
            let threads = parallel::effective_threads().min(m.div_ceil(ROWS_PER_WORKER_MIN));
            let rows_per_worker = m.div_ceil(threads.max(1));
            let mut packed_b = vec![0.0f32; n.div_ceil(NR) * KC * NR];
            let mut kc = 0;
            while kc < k {
                let kb = KC.min(k - kc);
                let plen = n.div_ceil(NR) * kb * NR;
                pack_b(bv, kc, kb, n, &mut packed_b[..plen]);
                parallel::par_chunks_mut(&mut fast, rows_per_worker * n, |widx, rows| {
                    gemm_rows(
                        Kernel::best(),
                        av,
                        widx * rows_per_worker,
                        rows.len() / n,
                        kc,
                        kb,
                        n,
                        &packed_b[..plen],
                        rows,
                    );
                });
                kc += kb;
            }
            assert!(
                max_diff(&fast, &slow) < 1e-4,
                "mismatch at ({m},{k},{n}): {}",
                max_diff(&fast, &slow)
            );
        }
    }

    /// A packed-window GEMM over a whole-K window must equal the unpacked
    /// blocked path bit-for-bit (same panel boundaries, same kernels), and
    /// per-segment windows must equal GEMMs on the corresponding B slabs.
    #[test]
    fn packed_windows_match_unpacked_gemm() {
        let mut rng = DivaRng::seed_from_u64(99);
        let (seg, n_seg, n) = (130usize, 3usize, 47usize);
        let k = seg * n_seg;
        let m = 65;
        let a = dense(m, k, &mut rng);
        let b = dense(k, n, &mut rng);
        let av = MatRef::row_major(&a, k);
        let bv = MatRef::row_major(&b, n);
        let pb = PackedB::pack_segmented(bv, k, n, seg);

        // Whole window: segment boundaries force extra panel splits, which
        // reassociates relative to the single-panel reference, so this is a
        // tolerance comparison.
        let mut packed_out = vec![0.0f32; m * n];
        gemm_packed_window(Kernel::best(), m, av, &pb, 0, k, &mut packed_out);
        let mut slow = vec![0.0f32; m * n];
        gemm_reference(m, k, n, av, bv, &mut slow);
        assert!(max_diff(&packed_out, &slow) < 1e-4);

        // Per-segment windows: must match a GEMM on the sliced operands
        // exactly, because the panel boundaries agree (seg < KC → one
        // panel either way).
        for s in 0..n_seg {
            let (lo, hi) = (s * seg, (s + 1) * seg);
            let a_win = dense(m, seg, &mut rng);
            let awv = MatRef::row_major(&a_win, seg);
            let mut win_out = vec![0.0f32; m * n];
            gemm_packed_window(Kernel::best(), m, awv, &pb, lo, hi, &mut win_out);
            let b_slab = &b[lo * n..hi * n];
            let mut direct = vec![0.0f32; m * n];
            // Unpacked blocked path on the same slab.
            let bsv = MatRef::row_major(b_slab, n);
            let mut packed_b = vec![0.0f32; n.div_ceil(NR) * seg * NR];
            pack_b(bsv, 0, seg, n, &mut packed_b);
            gemm_rows(Kernel::best(), awv, 0, m, 0, seg, n, &packed_b, &mut direct);
            assert_eq!(win_out, direct, "segment {s} diverged from slab GEMM");
        }
    }

    #[test]
    #[should_panic(expected = "reused across operands of different shapes")]
    fn pack_cache_rejects_shape_change() {
        let b = vec![0.0f32; 6];
        let bv = MatRef::row_major(&b, 3);
        let cache = PackCache::new();
        let _ = cache.get_or_pack(2, 3, 0, || PackedB::pack_segmented(bv, 2, 3, 2));
        let _ = cache.get_or_pack(3, 2, 0, || PackedB::pack_segmented(bv, 3, 2, 3));
    }

    #[test]
    #[should_panic(expected = "stale pack")]
    fn pack_cache_rejects_changed_operand() {
        let mut b = vec![1.0f32; 6];
        let cache = PackCache::new();
        {
            let bv = MatRef::row_major(&b, 3);
            let t0 = content_token(&b);
            let _ = cache.get_or_pack(2, 3, t0, || PackedB::pack_segmented(bv, 2, 3, 2));
        }
        b[4] = 2.0; // the operand mutates between uses
        let bv = MatRef::row_major(&b, 3);
        let t1 = content_token(&b);
        let _ = cache.get_or_pack(2, 3, t1, || PackedB::pack_segmented(bv, 2, 3, 2));
    }

    #[test]
    fn content_token_is_order_and_value_sensitive() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [2.0f32, 1.0, 3.0];
        let c = [1.0f32, 2.0, 3.0];
        assert_eq!(content_token(&a), content_token(&c));
        assert_ne!(content_token(&a), content_token(&b));
        assert_ne!(content_token(&a), content_token(&a[..2]));
    }

    /// On-host cost-split diagnostic (ignored): times the bare micro-kernel
    /// sweep, the packing passes, and the full GEMM at 256³ so interior
    /// changes can be attributed to compute vs. packing vs. traffic.
    #[test]
    #[ignore = "timing diagnostic, run manually"]
    fn interior_cost_split_timing() {
        const D: usize = 256;
        let mut rng = DivaRng::seed_from_u64(3);
        let a = dense(D, D, &mut rng);
        let b = dense(D, D, &mut rng);
        let av = MatRef::row_major(&a, D);
        let bv = MatRef::row_major(&b, D);
        let kb = D;
        let n_strips = D.div_ceil(NR);
        let mut packed_b = vec![0.0f32; n_strips * kb * NR];
        pack_b(bv, 0, kb, D, &mut packed_b);
        let mut packed_a = vec![0.0f32; D.div_ceil(MR) * MR * kb];
        pack_a(av, 0, D, 0, kb, &mut packed_a);
        let reps = 40;

        // Bare kernel sweep over all tiles, panels streamed as in gemm_rows.
        let kernel = Kernel::best();
        let t0 = std::time::Instant::now();
        let mut sink = 0.0f32;
        for _ in 0..reps {
            for strip_b in 0..n_strips {
                let b_panel = &packed_b[strip_b * kb * NR..(strip_b + 1) * kb * NR];
                for strip_a in 0..D.div_ceil(MR) {
                    let a_panel = &packed_a[strip_a * kb * MR..(strip_a + 1) * kb * MR];
                    let mut acc = [[0.0f32; NR]; MR];
                    run_microkernel(kernel, kb, a_panel, b_panel, &mut acc);
                    // Defeat dead-code elimination of unused lanes.
                    let acc = std::hint::black_box(acc);
                    sink += acc[0][0];
                }
            }
        }
        let kernel_ms = t0.elapsed().as_secs_f64() / f64::from(reps) * 1e3;

        // Same tile count, but one fixed L1-resident panel pair: the pure
        // compute floor with no panel streaming at all.
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            for _ in 0..n_strips {
                let b_panel = &packed_b[..kb * NR];
                for _ in 0..D.div_ceil(MR) {
                    let a_panel = &packed_a[..kb * MR];
                    let mut acc = [[0.0f32; NR]; MR];
                    run_microkernel(kernel, kb, a_panel, b_panel, &mut acc);
                    let acc = std::hint::black_box(acc);
                    sink += acc[0][0];
                }
            }
        }
        let resident_ms = t0.elapsed().as_secs_f64() / f64::from(reps) * 1e3;
        println!("fixed-panel compute floor: {resident_ms:.3} ms");

        // Packing passes alone.
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            pack_b(bv, 0, kb, D, &mut packed_b);
            pack_a(av, 0, D, 0, kb, &mut packed_a);
        }
        let pack_ms = t0.elapsed().as_secs_f64() / f64::from(reps) * 1e3;

        // Full serial GEMM.
        let mut out = vec![0.0f32; D * D];
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            out.fill(0.0);
            crate::parallel::Backend::serial().install(|| gemm(D, D, D, av, bv, &mut out));
        }
        let gemm_ms = t0.elapsed().as_secs_f64() / f64::from(reps) * 1e3;
        println!(
            "256^3 serial: kernel sweep {kernel_ms:.3} ms, packing {pack_ms:.3} ms, \
             full gemm {gemm_ms:.3} ms (sink {sink})"
        );
    }

    #[test]
    fn packing_zero_pads_tails() {
        let mut rng = DivaRng::seed_from_u64(7);
        let n = NR + 3; // one full strip + a padded tail strip
        let k = 5;
        let b = dense(k, n, &mut rng);
        let bv = MatRef::row_major(&b, n);
        let mut packed = vec![f32::NAN; n.div_ceil(NR) * k * NR];
        pack_b(bv, 0, k, n, &mut packed);
        // Tail strip: entries beyond column n must be exactly zero.
        let tail = &packed[k * NR..];
        for kk in 0..k {
            for jr in 0..NR {
                let v = tail[kk * NR + jr];
                if jr < 3 {
                    assert_eq!(v, b[kk * n + NR + jr]);
                } else {
                    assert_eq!(v, 0.0, "padding not zeroed at k={kk} jr={jr}");
                }
            }
        }
    }
}
