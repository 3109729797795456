//! Real implementations of the HPCC 1.4 kernels (paper Section III-C1).
//!
//! Each kernel returns a result summary with a self-check, mirroring the
//! HPCC harness's residual/verification outputs. Sizes are parameters so
//! callers can scale them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of one kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Kernel name (HPCC naming).
    pub name: &'static str,
    /// Work metric (FLOP, updates, bytes — kernel-specific).
    pub work: f64,
    /// Verification value (residual / checksum), small is good where
    /// applicable.
    pub check: f64,
    /// Whether the self-check passed.
    pub passed: bool,
}

/// HPL: solve `Ax = b` by LU decomposition with partial pivoting;
/// verification is the scaled residual, as in the real HPL.
pub fn hpl(n: usize, seed: u64) -> KernelResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    // b = A · x_true
    let b: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| a[i][j] * x_true[j]).sum())
        .collect();
    let a_orig = a.clone();

    // LU with partial pivoting, in place.
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        let (pivot, _) = (k..n)
            .map(|i| (i, a[i][k].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).expect("finite"))
            .expect("nonempty column");
        a.swap(k, pivot);
        perm.swap(k, pivot);
        let akk = a[k][k];
        if akk.abs() < 1e-14 {
            return KernelResult {
                name: "HPL",
                work: 0.0,
                check: f64::INFINITY,
                passed: false,
            };
        }
        for i in (k + 1)..n {
            let factor = a[i][k] / akk;
            a[i][k] = factor;
            let (pivot_rows, rest) = a.split_at_mut(i);
            let pivot_row = &pivot_rows[k];
            for (x, &upper) in rest[0][k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                *x -= factor * upper;
            }
        }
    }
    // Solve Ly = Pb, then Ux = y.
    let mut y: Vec<f64> = (0..n).map(|i| b[perm[i]]).collect();
    for i in 0..n {
        for j in 0..i {
            y[i] -= a[i][j] * y[j];
        }
    }
    let mut x = y;
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            let xj = x[j];
            x[i] -= a[i][j] * xj;
        }
        x[i] /= a[i][i];
    }
    // Residual ‖Ax − b‖∞ / (‖A‖ ‖x‖ n ε).
    let mut resid: f64 = 0.0;
    for i in 0..n {
        let ax: f64 = (0..n).map(|j| a_orig[i][j] * x[j]).sum();
        resid = resid.max((ax - b[i]).abs());
    }
    let norm_x = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let scaled = resid / (norm_x.max(1.0) * n as f64 * f64::EPSILON);
    KernelResult {
        name: "HPL",
        work: 2.0 / 3.0 * (n as f64).powi(3),
        check: scaled,
        passed: scaled < 100.0,
    }
}

/// DGEMM: blocked `C = αAB + βC`; verification against a direct
/// computation on a sampled entry.
pub fn dgemm(n: usize, block: usize, seed: u64) -> KernelResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut c = vec![0.0f64; n * n];
    let bs = block.max(8).min(n);
    for ii in (0..n).step_by(bs) {
        for kk in (0..n).step_by(bs) {
            for jj in (0..n).step_by(bs) {
                for i in ii..(ii + bs).min(n) {
                    for k in kk..(kk + bs).min(n) {
                        let aik = a[i * n + k];
                        for j in jj..(jj + bs).min(n) {
                            c[i * n + j] += aik * b[k * n + j];
                        }
                    }
                }
            }
        }
    }
    // Check one sampled row against direct evaluation.
    let i = n / 2;
    let mut err: f64 = 0.0;
    for j in 0..n {
        let direct: f64 = (0..n).map(|k| a[i * n + k] * b[k * n + j]).sum();
        err = err.max((direct - c[i * n + j]).abs());
    }
    KernelResult {
        name: "DGEMM",
        work: 2.0 * (n as f64).powi(3),
        check: err,
        passed: err < 1e-9 * n as f64,
    }
}

/// STREAM triad: `a[i] = b[i] + s·c[i]` over large arrays; the check is
/// an element identity.
pub fn stream(n: usize, repeats: usize) -> KernelResult {
    let s = 3.0f64;
    let b: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let c: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
    let mut a = vec![0.0f64; n];
    for _ in 0..repeats.max(1) {
        for i in 0..n {
            a[i] = b[i] + s * c[i];
        }
    }
    let i = n / 3;
    let err = (a[i] - (b[i] + s * c[i])).abs();
    KernelResult {
        name: "STREAM",
        work: (n * repeats * 24) as f64, // bytes moved
        check: err,
        passed: err == 0.0,
    }
}

/// PTRANS: `A = Aᵀ + B` on a dense matrix; check via double transpose.
pub fn ptrans(n: usize, seed: u64) -> KernelResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let orig: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let bmat: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut a = orig.clone();
    // Transpose in a fresh buffer (the HPCC kernel is distributed; the
    // memory access pattern — column-major reads — is what matters).
    let mut t = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            t[j * n + i] = a[i * n + j];
        }
    }
    for (ai, (ti, bi)) in a.iter_mut().zip(t.iter().zip(&bmat)) {
        *ai = ti + bi;
    }
    let idx = (n / 2) * n + n / 3;
    let (i, j) = (idx / n, idx % n);
    let err = (a[idx] - (orig[j * n + i] + bmat[idx])).abs();
    KernelResult {
        name: "PTRANS",
        work: (n * n * 16) as f64,
        check: err,
        passed: err == 0.0,
    }
}

/// RandomAccess (GUPS): xor-updates at pseudo-random locations of a
/// power-of-two table, with the official error-tolerant verification.
pub fn random_access(log2_size: u32, updates: usize) -> KernelResult {
    let size = 1usize << log2_size;
    let mask = (size - 1) as u64;
    let mut table: Vec<u64> = (0..size as u64).collect();
    let mut ran: u64 = 1;
    for _ in 0..updates {
        // HPCC's LCG-ish generator: shift-xor polynomial step.
        ran = (ran << 1) ^ if (ran as i64) < 0 { 7 } else { 0 };
        let idx = (ran & mask) as usize;
        table[idx] ^= ran;
    }
    // Re-run the same sequence: xor-ing twice restores the table.
    let mut ran2: u64 = 1;
    for _ in 0..updates {
        ran2 = (ran2 << 1) ^ if (ran2 as i64) < 0 { 7 } else { 0 };
        let idx = (ran2 & mask) as usize;
        table[idx] ^= ran2;
    }
    let errors = table
        .iter()
        .enumerate()
        .filter(|(i, &v)| v != *i as u64)
        .count();
    KernelResult {
        name: "RandomAccess",
        work: updates as f64,
        check: errors as f64,
        passed: errors == 0,
    }
}

/// FFT: iterative radix-2 Cooley-Tukey; verified by round-tripping
/// through the inverse transform.
pub fn fft(log2_n: u32, seed: u64) -> KernelResult {
    let n = 1usize << log2_n;
    let mut rng = StdRng::seed_from_u64(seed);
    let re0: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let im0: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut re = re0.clone();
    let mut im = im0.clone();
    fft_in_place(&mut re, &mut im, false);
    fft_in_place(&mut re, &mut im, true);
    let err = re
        .iter()
        .zip(&re0)
        .chain(im.iter().zip(&im0))
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    KernelResult {
        name: "FFT",
        work: 5.0 * n as f64 * f64::from(log2_n),
        check: err,
        passed: err < 1e-9,
    }
}

fn fft_in_place(re: &mut [f64], im: &mut [f64], inverse: bool) {
    let n = re.len();
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0;
    for i in 0..n {
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let a = start + k;
                let b = a + len / 2;
                let (tr, ti) = (re[b] * cr - im[b] * ci, re[b] * ci + im[b] * cr);
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
                let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                cr = ncr;
                ci = nci;
            }
        }
        len <<= 1;
    }
    if inverse {
        for v in re.iter_mut().chain(im.iter_mut()) {
            *v /= n as f64;
        }
    }
}

/// COMM: latency/bandwidth microbenchmark over in-process channels
/// (ping-pong and ring exchange between threads), reporting measured
/// message rate as the work metric.
pub fn comm(messages: usize, payload_bytes: usize) -> KernelResult {
    use std::sync::mpsc;
    let (tx_a, rx_b) = mpsc::channel::<Vec<u8>>();
    let (tx_b, rx_a) = mpsc::channel::<Vec<u8>>();
    let n = messages.max(1);
    let handle = std::thread::spawn(move || {
        let mut received = 0u64;
        for _ in 0..n {
            let msg = rx_b.recv().expect("ping");
            received += msg.len() as u64;
            tx_b.send(msg).expect("pong");
        }
        received
    });
    let payload = vec![0xA5u8; payload_bytes];
    let mut round_trips = 0u64;
    for _ in 0..n {
        // A send/recv error means the peer hung up early — it panicked
        // and dropped its channel ends. Stop ping-ponging and fall
        // through to the join below, which surfaces the peer's actual
        // panic instead of a bare "send"/"recv" expect on this thread
        // (and instead of silently leaking the handle).
        if tx_a.send(payload.clone()).is_err() {
            break;
        }
        let Ok(back) = rx_a.recv() else {
            break;
        };
        debug_assert_eq!(back.len(), payload_bytes);
        round_trips += 1;
    }
    let received = match handle.join() {
        Ok(received) => received,
        Err(panic) => std::panic::resume_unwind(panic),
    };
    KernelResult {
        name: "COMM",
        work: (round_trips as usize * payload_bytes * 2) as f64,
        check: (received - (n * payload_bytes) as u64) as f64,
        passed: received == (n * payload_bytes) as u64 && round_trips == n as u64,
    }
}

/// Run the full suite at smoke-test sizes.
pub fn run_all_small(seed: u64) -> Vec<KernelResult> {
    vec![
        hpl(64, seed),
        dgemm(96, 32, seed),
        stream(1 << 16, 3),
        ptrans(96, seed),
        random_access(14, 1 << 14),
        fft(12, seed),
        comm(200, 4096),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpl_residual_is_small() {
        let r = hpl(48, 1);
        assert!(r.passed, "scaled residual {}", r.check);
        assert!(r.work > 0.0);
    }

    #[test]
    fn dgemm_matches_direct() {
        let r = dgemm(64, 16, 2);
        assert!(r.passed, "max err {}", r.check);
    }

    #[test]
    fn stream_identity_holds() {
        let r = stream(10_000, 2);
        assert!(r.passed);
        assert_eq!(r.check, 0.0);
    }

    #[test]
    fn ptrans_transposes() {
        let r = ptrans(50, 3);
        assert!(r.passed);
    }

    #[test]
    fn random_access_verifies() {
        let r = random_access(12, 1 << 12);
        assert!(r.passed, "{} mismatches", r.check);
    }

    #[test]
    fn fft_round_trips() {
        let r = fft(10, 4);
        assert!(r.passed, "round-trip err {}", r.check);
    }

    #[test]
    fn comm_exchanges_all_messages() {
        let r = comm(100, 1024);
        assert!(r.passed);
        assert_eq!(r.work, 100.0 * 1024.0 * 2.0);
    }

    #[test]
    fn full_suite_passes() {
        for r in run_all_small(7) {
            assert!(r.passed, "{} failed with check {}", r.name, r.check);
        }
    }

    #[test]
    fn fft_matches_known_transform() {
        // FFT of an impulse is flat.
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0] = 1.0;
        fft_in_place(&mut re, &mut im, false);
        for (r, i) in re.iter().zip(&im) {
            assert!((r - 1.0).abs() < 1e-12);
            assert!(i.abs() < 1e-12);
        }
    }
}
