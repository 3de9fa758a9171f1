//! Cache-blocked, register-tiled GEMM — the compute backend behind every
//! transpose flavour of [`crate::matmul`] and, through `im2col` lowering,
//! every convolution in the repo.
//!
//! Structure (classic BLIS-style three-level blocking, all safe Rust):
//!
//! * One driver, [`gemm_panels`], runs every blocked GEMM over a list of K
//!   panels ([`Panel`]: A and B viewed from the panel's first K index).
//!   [`gemm`] splits K at every multiple of `KC`; the convolution weight
//!   gradient breaks it at every example boundary first.
//! * The driver splits C over the shared pool ([`crate::parallel`]) in one
//!   decision ([`Split::of`]): a tall M in row blocks; a skinny M (a batch
//!   size or a channel count) large enough to split in `NR`-aligned column
//!   blocks, or in `MR`-aligned row blocks when N fits one strip (a first
//!   convolution's weight gradient); anything smaller on the calling
//!   thread. Every block runs the one worker body, [`gemm_block`]: for each
//!   panel in order it packs its own B columns into `NR`-wide strips
//!   (k-major within a strip) and runs the panel over its rows, so every
//!   element keeps its exact FMA sequence at any thread count.
//! * Within a worker, M is blocked by `MC`; each `MC × KC` block of A is
//!   packed into `MR`-tall row strips, then an `MR × NR` register-tile
//!   micro-kernel walks the packed panels. The micro-kernel is safe Rust:
//!   its inner loops have constant trip counts over contiguous slices (k
//!   loop unrolled ×4), which the autovectorizer turns into wide FMA code
//!   under `-C target-cpu=native`.
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
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::thread::LocalKey;

/// The GEMM arm a [`Backend`] runs.
///
/// [`Kernel::Safe`] takes the blocked, packed path: one fused multiply-add
/// per output element per k, k ascending, into a single accumulator.
/// [`Kernel::Reference`] routes every GEMM through the seed's scalar loop —
/// the baseline of the benches' `speedup_vs_scalar` rows — and is bitwise
/// [`crate::matmul_reference`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The seed's scalar i-k-j loop, serial within each GEMM.
    Reference,
    /// The safe register-tile micro-kernel, autovectorized (the default).
    Safe,
}

/// Always `false`: the GEMM has no explicit-SIMD micro-kernel. Kept only
/// for the `dpbench` host fingerprint, which prints it.
pub fn simd_available() -> bool {
    false
}

/// Always `false`: the GEMM has no explicit-SIMD micro-kernel. Kept only
/// for the `dpbench` host fingerprint, which prints it.
pub fn simd_enabled() -> bool {
    false
}

/// Always `false`: the GEMM has no AVX-512 micro-kernel. Kept only for the
/// `dpbench` host fingerprint, which prints it.
pub fn avx512_enabled() -> bool {
    false
}

/// Micro-tile height (rows of C held in registers). With `NR = 16` the
/// accumulator occupies 12 256-bit registers — enough independent FMA
/// chains to hide the FMA latency without spilling.
const MR: usize = 6;
/// Micro-tile width (columns of C held in registers): 16 `f32` per row,
/// which LLVM lowers to two 256-bit vectors even where AVX-512 is
/// available. That is a codegen outcome, not a measured optimum: on a
/// 2-vCPU AVX-512 Xeon VM an explicit 512-bit arm (since deleted) was
/// faster in 10 of 11 paired rounds, by about 4% of a training step.
const NR: usize = 16;
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
fn group_width(kb: usize) -> usize {
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
    /// Per-thread copy of a column block of C ([`gemm_panels`]); kept
    /// out of the recycled buffer pool, whose bounded idle set holds a
    /// training step's large tensors.
    static C_BLOCK_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the thread-local scratch slice `key` holds, exactly `len`
/// elements long.
///
/// Contents are **unspecified on entry** — `pack_a`/`pack_b` overwrite
/// every slot the kernels later read (tail strips are zero-padded
/// explicitly), and the convolutions zero their tiles before a GEMM adds
/// into them, so stale data from a previous call can never leak into a
/// result. If the slot is already borrowed, falls back to a fresh
/// allocation rather than panicking. Re-entrancy is real under
/// hierarchical nested scheduling: a GEMM's submitter *helps* while
/// waiting on its region latch (see `pool::run_region`), and a stolen job
/// can open another GEMM on this very thread while the outer one's scratch
/// is still borrowed. The fallback costs an allocation, never correctness
/// — packing layout is identical either way.
pub(crate) fn with_scratch<R>(
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

/// Fewest multiply-adds for which a GEMM whose M gives a single worker
/// splits its columns, or its rows into `MR`-aligned blocks
/// ([`Split::of`]). The benchmark CNN's full-batch skinny GEMMs clear it
/// (fc1's 32×1568×256 forward is 12.8M, conv2's 32×6272×144 weight
/// gradient 28.9M); the per-example GEMMs inside DP-SGD's batch fan-out
/// stay under it and keep their single task (a per-example conv2 weight
/// gradient, 32×196×144, is 0.9M).
const COL_SPLIT_THRESHOLD: usize = 1 << 21;

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
    pub(crate) fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }

    /// The view of rows `row0..` of this operand.
    fn rows_from(self, row0: usize) -> Self {
        Self {
            data: &self.data[row0 * self.rs..],
            ..self
        }
    }

    /// A contiguous row-major copy of the first `rows × cols` elements.
    pub(crate) fn to_row_major(self, rows: usize, cols: usize) -> Vec<f32> {
        (0..rows)
            .flat_map(|i| (0..cols).map(move |j| self.at(i, j)))
            .collect()
    }

    /// Column `j` from row `i0` on as a slice, if rows are unit-stride (a
    /// transposed view); else `None`.
    pub(crate) fn col_run(&self, i0: usize, j: usize) -> Option<&'a [f32]> {
        (self.rs == 1).then(|| &self.data[i0 + j * self.cs..])
    }

    /// The view of columns `col0..` of this operand.
    fn cols_from(self, col0: usize) -> Self {
        Self {
            data: &self.data[col0 * self.cs..],
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

/// Packs B's first `kb × n` slab into `NR`-wide strips:
/// `packed[strip][kk][jr]` with the tail strip zero-padded to `NR`.
///
/// Row-major B (`cs == 1`, every GEMM flavour except `nt`/`tt`) takes a
/// `copy_from_slice` fast path: each strip row is one contiguous 64-byte
/// copy instead of `NR` strided element reads. Same elements, same slots —
/// packing layout is not part of the numeric contract.
fn pack_b(b: MatRef, kb: usize, n: usize, packed: &mut [f32]) {
    debug_assert_eq!(packed.len(), n.div_ceil(NR) * kb * NR);
    for (strip, panel) in packed.chunks_mut(kb * NR).enumerate() {
        let j0 = strip * NR;
        let jw = NR.min(n - j0);
        if b.cs == 1 {
            for (kk, row) in panel.chunks_mut(NR).enumerate() {
                let src = &b.data[kk * b.rs + j0..kk * b.rs + j0 + jw];
                row[..jw].copy_from_slice(src);
                row[jw..].fill(0.0);
            }
        } else {
            for (kk, row) in panel.chunks_mut(NR).enumerate() {
                for (jr, slot) in row.iter_mut().enumerate() {
                    *slot = if jr < jw { b.at(kk, j0 + jr) } else { 0.0 };
                }
            }
        }
    }
}

/// Packs rows `i0..i0 + mb` of A's first `kb` columns into `MR`-tall
/// strips: `packed[strip][kk][ir]` with the tail strip zero-padded to `MR`.
///
/// Two fast paths mirror [`pack_b`]'s: row-major A (`cs == 1`, the
/// forward/`nt` flavours) walks each source row contiguously and scatters
/// into the L1-resident strip; column-major A (`rs == 1`, the `tn`
/// weight-gradient flavour) copies each strip column with one contiguous
/// `copy_from_slice`. Same elements, same slots either way.
fn pack_a(a: MatRef, i0: usize, mb: usize, kb: usize, packed: &mut [f32]) {
    debug_assert!(packed.len() >= mb.div_ceil(MR) * kb * MR);
    for (strip, panel) in packed.chunks_mut(kb * MR).take(mb.div_ceil(MR)).enumerate() {
        let r0 = strip * MR;
        let rh = MR.min(mb - r0);
        if a.cs == 1 {
            if rh < MR {
                panel.fill(0.0);
            }
            for ir in 0..rh {
                let src = &a.data[(i0 + r0 + ir) * a.rs..(i0 + r0 + ir) * a.rs + kb];
                for (kk, &v) in src.iter().enumerate() {
                    panel[kk * MR + ir] = v;
                }
            }
        } else if a.rs == 1 {
            for (kk, col) in panel.chunks_mut(MR).enumerate() {
                let base = kk * a.cs + i0 + r0;
                col[..rh].copy_from_slice(&a.data[base..base + rh]);
                col[rh..].fill(0.0);
            }
        } else {
            for (kk, col) in panel.chunks_mut(MR).enumerate() {
                for (ir, slot) in col.iter_mut().enumerate() {
                    *slot = if ir < rh { a.at(i0 + r0 + ir, kk) } else { 0.0 };
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
/// `mul_add` per output element per k, k ascending.
#[inline(always)]
fn microkernel(kb: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
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

/// Computes rows `row0..row0 + rows` of one `kb`-deep panel of C against
/// its packed B strips, `out_rows += A × B`.
fn gemm_rows(
    a: MatRef,
    row0: usize,
    rows: usize,
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
    let gw = group_width(kb);
    with_scratch(&PACK_A_SCRATCH, MC.div_ceil(MR) * MR * kb, |packed_a| {
        let mut i0 = 0;
        while i0 < rows {
            let mb = MC.min(rows - i0);
            pack_a(a, row0 + i0, mb, kb, packed_a);
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
                        microkernel(kb, a_panel, b_panel, acc);
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

/// The arithmetic a GEMM of this shape runs under the calling thread's
/// [`Backend`] — the decision [`gemm`] makes internally.
///
/// Exposed so callers that run one GEMM per example of a batch, or that
/// hand [`gemm_panels`] their own K panels, replicate the same routing and
/// therefore stay bit-identical with the whole-batch GEMM for every shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// The scalar reference loop on the operands as given: under
    /// [`Kernel::Reference`], or below [`BLOCKED_THRESHOLD`] multiply-adds.
    Reference,
    /// The reference loop's arithmetic over a contiguous copy of B
    /// ([`gemm_tiny_k`]). Tiny-K GEMMs (`k < 16`: DP-SGD's per-example
    /// rank-1 weight gradients, a first convolution's `C_in·R·S = 9`
    /// patches) are short outer-product accumulations, where the packing
    /// passes cost more than they save.
    TinyK,
    /// The blocked, packed kernel ([`gemm_panels`]).
    Blocked,
}

impl Route {
    /// The route of an `(m, k, n)` GEMM.
    pub(crate) fn of(m: usize, k: usize, n: usize) -> Self {
        if Backend::current().kernel() == Kernel::Reference || m * k * n < BLOCKED_THRESHOLD {
            Route::Reference
        } else if k < 16 {
            Route::TinyK
        } else {
            Route::Blocked
        }
    }
}

/// `out += A × B` where `A` is logically `(m, k)` and `B` is `(k, n)` under
/// their respective stride views, and `out` is row-major `(m, n)`.
///
/// Takes the blocked kernel ([`gemm_panels`] over K panels of `KC`), but
/// falls back to the scalar reference below [`BLOCKED_THRESHOLD`]
/// multiply-adds or under [`Kernel::Reference`], and to its row-parallel
/// form ([`gemm_tiny_k`]) for larger `k < 16` GEMMs.
pub(crate) fn gemm(m: usize, k: usize, n: usize, a: MatRef, b: MatRef, out: &mut [f32]) {
    assert_eq!(out.len(), m * n, "output buffer shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match Route::of(m, k, n) {
        Route::Reference => gemm_reference(m, k, n, a, b, out),
        Route::TinyK => gemm_tiny_k(k, n, a, b, out),
        Route::Blocked => gemm_panels(m, n, &panels(k, a, b), out),
    }
}

/// [`gemm`]'s blocked route on the calling thread alone: the same K
/// panels, packing and per-element FMA sequence, so a caller that runs one
/// GEMM per pool task (say, one per example of a batch) gets exactly the
/// bits [`gemm`] would give each of those rows or columns. Routing is the
/// caller's: call it where the whole GEMM the tasks replace takes
/// [`Route::Blocked`].
pub(crate) fn gemm_serial(m: usize, k: usize, n: usize, a: MatRef, b: MatRef, out: &mut [f32]) {
    debug_assert_eq!(out.len(), m * n);
    gemm_block(&panels(k, a, b), 0..m, 0..n, out);
}

/// One K panel of a blocked GEMM.
#[derive(Clone, Copy)]
pub(crate) struct Panel<'a> {
    /// A from the panel's first K column on.
    a: MatRef<'a>,
    /// B from the panel's first K row on.
    b: MatRef<'a>,
    /// The panel's length along K.
    kb: usize,
}

/// The panels of a `k`-deep product of `a` and `b`, split at every
/// multiple of `KC`: [`gemm`]'s own split. Concatenating the panels of
/// several products (one per example of a batch, say) gives their sum with
/// each product's panels, and therefore each element's FMA sequence,
/// unchanged.
pub(crate) fn panels<'a>(k: usize, a: MatRef<'a>, b: MatRef<'a>) -> Vec<Panel<'a>> {
    (0..k)
        .step_by(KC)
        .map(|kc| Panel {
            a: a.cols_from(kc),
            b: b.rows_from(kc),
            kb: KC.min(k - kc),
        })
        .collect()
}

/// How [`gemm_panels`] splits C over the pool.
enum Split {
    /// All of C on the calling thread.
    Serial,
    /// Row blocks of this many rows, one pool task each.
    Rows(usize),
    /// This many `NR`-aligned column blocks, one pool task each.
    Cols(usize),
}

impl Split {
    /// The split of an `(m, k, n)` GEMM at the backend's width: a tall M
    /// in row blocks of at least [`ROWS_PER_WORKER_MIN`] rows. A skinny M
    /// (a batch size or a channel count) past [`COL_SPLIT_THRESHOLD`]
    /// multiply-adds splits its `NR` strips of N into column blocks, or,
    /// when N fits one strip, its rows into `MR`-aligned blocks. Anything
    /// smaller stays on the calling thread.
    fn of(m: usize, k: usize, n: usize) -> Self {
        let threads = parallel::effective_threads();
        let rows = if m > ROWS_PER_WORKER_MIN {
            m.div_ceil(threads.min(m.div_ceil(ROWS_PER_WORKER_MIN)))
        } else if threads < 2 || m * k * n < COL_SPLIT_THRESHOLD {
            m
        } else if n > NR {
            return Split::Cols(threads.min(n.div_ceil(NR)));
        } else {
            m.div_ceil(threads.min(m.div_ceil(MR))).next_multiple_of(MR)
        };
        if rows >= m {
            Split::Serial
        } else {
            Split::Rows(rows)
        }
    }
}

/// The blocked GEMM driver: `out += Σ_p A_p × B_p` over `panels` in order,
/// where `out` is row-major `(m, n)`. Splits C once ([`Split::of`]) and runs
/// every block through [`gemm_block`], so each element of C sees the same
/// tiles, added in the same order, at every thread count. Routing is the
/// caller's: call it on [`Route::Blocked`].
///
/// A column block's columns of C go through thread-local scratch (M is
/// small by construction): copied in, accumulated, copied back, with `out`
/// locked for each copy.
pub(crate) fn gemm_panels(m: usize, n: usize, panels: &[Panel], out: &mut [f32]) {
    assert_eq!(out.len(), m * n, "output buffer shape mismatch");
    let k = panels.iter().map(|p| p.kb).sum();
    match Split::of(m, k, n) {
        Split::Serial => gemm_block(panels, 0..m, 0..n, out),
        Split::Rows(rows) => parallel::par_chunks_mut(out, rows * n, |blk, c| {
            let r0 = blk * rows;
            gemm_block(panels, r0..r0 + c.len() / n, 0..n, c);
        }),
        Split::Cols(blocks) => {
            let n_strips = n.div_ceil(NR);
            let out = Mutex::new(out);
            // Blocks own disjoint columns, and a task panicking mid-copy
            // fails the whole region, so a poisoned lock guards nothing
            // anyone reads.
            let lock = || out.lock().unwrap_or_else(PoisonError::into_inner);
            parallel::par_map(blocks, |blk| {
                let (s0, s1) = (blk * n_strips / blocks, (blk + 1) * n_strips / blocks);
                let (j0, j1) = (s0 * NR, (s1 * NR).min(n));
                let nb = j1 - j0;
                with_scratch(&C_BLOCK_SCRATCH, m * nb, |c| {
                    for (crow, row) in c.chunks_exact_mut(nb).zip(lock().chunks_exact(n)) {
                        crow.copy_from_slice(&row[j0..j1]);
                    }
                    gemm_block(panels, 0..m, j0..j1, c);
                    for (row, crow) in lock().chunks_exact_mut(n).zip(c.chunks_exact(nb)) {
                        row[j0..j1].copy_from_slice(crow);
                    }
                });
            });
        }
    }
}

/// The one worker body of [`gemm_panels`]: `c += A[rows, :] × B[:, cols]`
/// over `panels` in order, `c` row-major `(rows.len(), cols.len())`. For
/// each panel it packs the block's B strips into [`PACK_B_SCRATCH`] right
/// before [`gemm_rows`] reads them.
fn gemm_block(panels: &[Panel], rows: Range<usize>, cols: Range<usize>, c: &mut [f32]) {
    let nb = cols.len();
    let strips_len = nb.div_ceil(NR) * NR;
    let max_kb = panels.iter().map(|p| p.kb).max().unwrap_or(0);
    with_scratch(&PACK_B_SCRATCH, strips_len * max_kb, |scratch| {
        for p in panels {
            let strips = &mut scratch[..strips_len * p.kb];
            pack_b(p.b.cols_from(cols.start), p.kb, nb, strips);
            gemm_rows(p.a, rows.start, rows.len(), p.kb, nb, strips, c);
        }
    });
}

/// [`gemm_reference`] for a large GEMM with `k < 16`, split over the pool
/// in [`TINY_K_ROWS`]-row blocks of C. B is first copied into a contiguous
/// `(k, n)` buffer, so every block streams unit-stride B rows even when B
/// arrives transposed (`nt`, a convolution's forward GEMM). Each element of
/// C still takes the reference kernel's multiply-adds in the same order,
/// so the result is bitwise [`gemm_reference`]'s at every thread count.
fn gemm_tiny_k(k: usize, n: usize, a: MatRef, b: MatRef, out: &mut [f32]) {
    let b_rows = b.to_row_major(k, n);
    let b = MatRef::row_major(&b_rows, n);
    parallel::par_chunks_mut(out, TINY_K_ROWS * n, |blk, rows| {
        let a = a.rows_from(blk * TINY_K_ROWS);
        gemm_reference(rows.len() / n, k, n, a, b, rows);
    });
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
            let av = MatRef::row_major(&a, k);
            let bv = MatRef::row_major(&b, n);
            let mut slow = vec![0.0f32; m * n];
            gemm_reference(m, k, n, av, bv, &mut slow);
            // Drive the blocked path directly (below threshold the public
            // entry would route to the reference anyway).
            for threads in [1, 3] {
                let mut fast = vec![0.0f32; m * n];
                Backend::with_threads(threads)
                    .install(|| gemm_panels(m, n, &panels(k, av, bv), &mut fast));
                assert!(
                    max_diff(&fast, &slow) < 1e-4,
                    "mismatch at ({m},{k},{n}) threads={threads}: {}",
                    max_diff(&fast, &slow)
                );
            }
        }
    }

    /// Panels concatenated over segments of K (one per example of a batch,
    /// each with its own A) give each segment's slab GEMM, accumulated in
    /// segment order, bit for bit: a segment longer than `KC` keeps its own
    /// panel split, and no panel straddles two segments. The row split at
    /// width 3 and the column split of a skinny M must not move a bit
    /// either.
    #[test]
    fn segmented_panels_match_slab_gemms() {
        let mut rng = DivaRng::seed_from_u64(99);
        let (seg, n_seg, n) = (KC + 9, 3usize, 47usize);
        let b = dense(seg * n_seg, n, &mut rng);
        let bv = MatRef::row_major(&b, n);
        for m in [65usize, 6] {
            let a: Vec<Vec<f32>> = (0..n_seg).map(|_| dense(m, seg, &mut rng)).collect();
            let slab = |s: usize| (MatRef::row_major(&a[s], seg), bv.rows_from(s * seg));
            let mut want = vec![0.0f32; m * n];
            for s in 0..n_seg {
                let (av, sv) = slab(s);
                gemm_serial(m, seg, n, av, sv, &mut want);
            }
            let segmented: Vec<Panel> = (0..n_seg)
                .flat_map(|s| {
                    let (av, sv) = slab(s);
                    panels(seg, av, sv)
                })
                .collect();
            for threads in [1, 3] {
                let mut got = vec![0.0f32; m * n];
                Backend::with_threads(threads).install(|| gemm_panels(m, n, &segmented, &mut got));
                assert_eq!(
                    got, want,
                    "m={m} threads={threads}: diverged from slab GEMMs"
                );
            }
        }
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
        pack_b(bv, kb, D, &mut packed_b);
        let mut packed_a = vec![0.0f32; D.div_ceil(MR) * MR * kb];
        pack_a(av, 0, D, kb, &mut packed_a);
        let reps = 40;

        // Bare kernel sweep over all tiles, panels streamed as in gemm_rows.
        let t0 = std::time::Instant::now();
        let mut sink = 0.0f32;
        for _ in 0..reps {
            for strip_b in 0..n_strips {
                let b_panel = &packed_b[strip_b * kb * NR..(strip_b + 1) * kb * NR];
                for strip_a in 0..D.div_ceil(MR) {
                    let a_panel = &packed_a[strip_a * kb * MR..(strip_a + 1) * kb * MR];
                    let mut acc = [[0.0f32; NR]; MR];
                    microkernel(kb, a_panel, b_panel, &mut acc);
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
                    microkernel(kb, a_panel, b_panel, &mut acc);
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
            pack_b(bv, kb, D, &mut packed_b);
            pack_a(av, 0, D, kb, &mut packed_a);
        }
        let pack_ms = t0.elapsed().as_secs_f64() / f64::from(reps) * 1e3;

        // Full serial GEMM.
        let mut out = vec![0.0f32; D * D];
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            out.fill(0.0);
            Backend::serial().install(|| gemm(D, D, D, av, bv, &mut out));
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
        pack_b(bv, k, n, &mut packed);
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
