//! GPS-EKF: an 8-state / 4-measurement extended Kalman filter, the
//! reproduction of the paper's TinyEKF GPS workload.
//!
//! The client sends the filter state (x, P) plus a fresh measurement z; the
//! function runs one predict+update cycle and returns the new (x, P) — the
//! stateless-function-with-client-carried-state pattern the paper describes.
//!
//! State model (TinyEKF's GPS example shape): four (position, velocity)
//! pairs with a constant-velocity transition, measurements observing the
//! four positions.
//!
//! Request layout  (little-endian f64): `x[8] | P[8][8] | z[4]` = 608 bytes.
//! Response layout:                     `x[8] | P[8][8]`        = 576 bytes.

use crate::abi::{f64_addr2, import_env, ld1, ld2, read_request, st1, st2, write_response};
use sledge_guestc::dsl::*;
use sledge_guestc::{Expr, FuncBuilder, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;

/// Number of states.
pub const N: usize = 8;
/// Number of measurements.
pub const M: usize = 4;
/// Transition time step.
const DT: f64 = 0.1;
/// Process noise.
const Q: f64 = 1e-4;
/// Measurement noise.
const R: f64 = 0.25;

// Guest memory layout (f64 offsets in bytes).
const RX: i32 = 4096; // request: x | P | z
const X: i32 = RX;
const P: i32 = RX + 8 * N as i32;
const Z: i32 = P + 8 * (N * N) as i32;
const F: i32 = 8192; // transition matrix
const H: i32 = F + 8 * (N * N) as i32; // measurement matrix (M x N)
const XP: i32 = 12288; // predicted state
const T1: i32 = XP + 8 * N as i32; // N x N scratch
const PP: i32 = T1 + 8 * (N * N) as i32; // predicted covariance
const T2: i32 = PP + 8 * (N * N) as i32; // M x N scratch
const S: i32 = T2 + 8 * (M * N) as i32; // innovation covariance M x M
const SI: i32 = S + 8 * (M * M) as i32; // S^-1
const PHT: i32 = SI + 8 * (M * M) as i32; // P H^T (N x M)
const K: i32 = PHT + 8 * (N * M) as i32; // Kalman gain N x M
const Y: i32 = K + 8 * (N * M) as i32; // innovation (M)
const KH: i32 = Y + 8 * M as i32; // K H (N x N)
const OUT: i32 = 20480; // response buffer

/// Build the EKF guest module.
pub fn module() -> Module {
    let mut mb = ModuleBuilder::new("gps_ekf");
    mb.memory(1, Some(2));
    let env = import_env(&mut mb);

    use ValType::{F64, I32};

    // matmul(a, b, c, n, m, k): C[n][k] = A[n][m] * B[m][k], row-major with
    // the *allocated* column strides passed explicitly (sa, sb, sc).
    let matmul = {
        let mut f = FuncBuilder::new(&[I32; 9], None);
        let (a, b, c) = (f.arg(0), f.arg(1), f.arg(2));
        let (n, m, k) = (f.arg(3), f.arg(4), f.arg(5));
        let (sa, sb, sc) = (f.arg(6), f.arg(7), f.arg(8));
        let i = f.local(I32);
        let j = f.local(I32);
        let l = f.local(I32);
        let acc = f.local(F64);
        f.push(for_loop(
            i,
            i32c(0),
            lt_s(local(i), local(n)),
            1,
            vec![for_loop(
                j,
                i32c(0),
                lt_s(local(j), local(k)),
                1,
                vec![
                    set(acc, f64c(0.0)),
                    for_loop(
                        l,
                        i32c(0),
                        lt_s(local(l), local(m)),
                        1,
                        vec![set(
                            acc,
                            add(
                                local(acc),
                                mul(
                                    load(
                                        Scalar::F64,
                                        add(
                                            local(a),
                                            mul(add(mul(local(i), local(sa)), local(l)), i32c(8)),
                                        ),
                                        0,
                                    ),
                                    load(
                                        Scalar::F64,
                                        add(
                                            local(b),
                                            mul(add(mul(local(l), local(sb)), local(j)), i32c(8)),
                                        ),
                                        0,
                                    ),
                                ),
                            ),
                        )],
                    ),
                    store(
                        Scalar::F64,
                        add(
                            local(c),
                            mul(add(mul(local(i), local(sc)), local(j)), i32c(8)),
                        ),
                        0,
                        local(acc),
                    ),
                ],
            )],
        ));
        mb.add_func("matmul", f)
    };

    // matmul_bt(a, b, c, n, m, k, sa, sb, sc): C[n][k] = A[n][m] * B^T where
    // B is [k][m].
    let matmul_bt = {
        let mut f = FuncBuilder::new(&[I32; 9], None);
        let (a, b, c) = (f.arg(0), f.arg(1), f.arg(2));
        let (n, m, k) = (f.arg(3), f.arg(4), f.arg(5));
        let (sa, sb, sc) = (f.arg(6), f.arg(7), f.arg(8));
        let i = f.local(I32);
        let j = f.local(I32);
        let l = f.local(I32);
        let acc = f.local(F64);
        f.push(for_loop(
            i,
            i32c(0),
            lt_s(local(i), local(n)),
            1,
            vec![for_loop(
                j,
                i32c(0),
                lt_s(local(j), local(k)),
                1,
                vec![
                    set(acc, f64c(0.0)),
                    for_loop(
                        l,
                        i32c(0),
                        lt_s(local(l), local(m)),
                        1,
                        vec![set(
                            acc,
                            add(
                                local(acc),
                                mul(
                                    load(
                                        Scalar::F64,
                                        add(
                                            local(a),
                                            mul(add(mul(local(i), local(sa)), local(l)), i32c(8)),
                                        ),
                                        0,
                                    ),
                                    load(
                                        Scalar::F64,
                                        add(
                                            local(b),
                                            mul(add(mul(local(j), local(sb)), local(l)), i32c(8)),
                                        ),
                                        0,
                                    ),
                                ),
                            ),
                        )],
                    ),
                    store(
                        Scalar::F64,
                        add(
                            local(c),
                            mul(add(mul(local(i), local(sc)), local(j)), i32c(8)),
                        ),
                        0,
                        local(acc),
                    ),
                ],
            )],
        ));
        mb.add_func("matmul_bt", f)
    };

    // invert4(src, dst): 4x4 Gauss-Jordan inverse without pivot search (S is
    // symmetric positive definite here).
    let invert4 = {
        let mut f = FuncBuilder::new(&[I32, I32], None);
        let (src, dst) = (f.arg(0), f.arg(1));
        let i = f.local(I32);
        let j = f.local(I32);
        let r = f.local(I32);
        let piv = f.local(F64);
        let fac = f.local(F64);
        // aug: 4x8 augmented matrix in scratch right after dst (dst+128).
        let aug_at = |row: Expr, col: Expr, dstl: sledge_guestc::Local| {
            add(
                add(local(dstl), i32c(128)),
                mul(add(mul(row, i32c(8)), col), i32c(8)),
            )
        };
        f.extend([
            // Build [S | I].
            for_loop(
                i,
                i32c(0),
                lt_s(local(i), i32c(4)),
                1,
                vec![for_loop(
                    j,
                    i32c(0),
                    lt_s(local(j), i32c(4)),
                    1,
                    vec![
                        store(
                            Scalar::F64,
                            aug_at(local(i), local(j), dst),
                            0,
                            load(
                                Scalar::F64,
                                add(
                                    local(src),
                                    mul(add(mul(local(i), i32c(4)), local(j)), i32c(8)),
                                ),
                                0,
                            ),
                        ),
                        store(
                            Scalar::F64,
                            aug_at(local(i), add(local(j), i32c(4)), dst),
                            0,
                            select(eq(local(i), local(j)), f64c(1.0), f64c(0.0)),
                        ),
                    ],
                )],
            ),
            // Eliminate.
            for_loop(
                i,
                i32c(0),
                lt_s(local(i), i32c(4)),
                1,
                vec![
                    set(piv, load(Scalar::F64, aug_at(local(i), local(i), dst), 0)),
                    for_loop(
                        j,
                        i32c(0),
                        lt_s(local(j), i32c(8)),
                        1,
                        vec![store(
                            Scalar::F64,
                            aug_at(local(i), local(j), dst),
                            0,
                            div(
                                load(Scalar::F64, aug_at(local(i), local(j), dst), 0),
                                local(piv),
                            ),
                        )],
                    ),
                    for_loop(
                        r,
                        i32c(0),
                        lt_s(local(r), i32c(4)),
                        1,
                        vec![if_(
                            ne(local(r), local(i)),
                            vec![
                                set(fac, load(Scalar::F64, aug_at(local(r), local(i), dst), 0)),
                                for_loop(
                                    j,
                                    i32c(0),
                                    lt_s(local(j), i32c(8)),
                                    1,
                                    vec![store(
                                        Scalar::F64,
                                        aug_at(local(r), local(j), dst),
                                        0,
                                        sub(
                                            load(Scalar::F64, aug_at(local(r), local(j), dst), 0),
                                            mul(
                                                local(fac),
                                                load(
                                                    Scalar::F64,
                                                    aug_at(local(i), local(j), dst),
                                                    0,
                                                ),
                                            ),
                                        ),
                                    )],
                                ),
                            ],
                        )],
                    ),
                ],
            ),
            // Copy right half to dst.
            for_loop(
                i,
                i32c(0),
                lt_s(local(i), i32c(4)),
                1,
                vec![for_loop(
                    j,
                    i32c(0),
                    lt_s(local(j), i32c(4)),
                    1,
                    vec![store(
                        Scalar::F64,
                        add(
                            local(dst),
                            mul(add(mul(local(i), i32c(4)), local(j)), i32c(8)),
                        ),
                        0,
                        load(
                            Scalar::F64,
                            aug_at(local(i), add(local(j), i32c(4)), dst),
                            0,
                        ),
                    )],
                )],
            ),
        ]);
        mb.add_func("invert4", f)
    };

    let nn = N as i32;
    let mm = M as i32;

    let mut f = FuncBuilder::new(&[], Some(I32));
    let len = f.local(I32);
    let i = f.local(I32);
    let j = f.local(I32);
    let acc = f.local(F64);

    let mut body = read_request(&env, RX, len);
    body.extend([
        // Build F: identity with DT on the (even, odd) velocity couplings.
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(nn)),
            1,
            vec![for_loop(
                j,
                i32c(0),
                lt_s(local(j), i32c(nn)),
                1,
                vec![st2(
                    F,
                    local(i),
                    local(j),
                    nn,
                    select(eq(local(i), local(j)), f64c(1.0), f64c(0.0)),
                )],
            )],
        ),
        // F[2k][2k+1] = DT.
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(mm)),
            1,
            vec![st2(
                F,
                mul(local(i), i32c(2)),
                add(mul(local(i), i32c(2)), i32c(1)),
                nn,
                f64c(DT),
            )],
        ),
        // Build H: M x N selecting even states.
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(mm)),
            1,
            vec![for_loop(
                j,
                i32c(0),
                lt_s(local(j), i32c(nn)),
                1,
                vec![st2(
                    H,
                    local(i),
                    local(j),
                    nn,
                    select(eq(mul(local(i), i32c(2)), local(j)), f64c(1.0), f64c(0.0)),
                )],
            )],
        ),
        // xp = F x (treat x as N x 1).
        exec(call(
            matmul,
            vec![
                i32c(F),
                i32c(X),
                i32c(XP),
                i32c(nn),
                i32c(nn),
                i32c(1),
                i32c(nn),
                i32c(1),
                i32c(1),
            ],
        )),
        // T1 = F P ; PP = T1 F^T + Q I.
        exec(call(
            matmul,
            vec![
                i32c(F),
                i32c(P),
                i32c(T1),
                i32c(nn),
                i32c(nn),
                i32c(nn),
                i32c(nn),
                i32c(nn),
                i32c(nn),
            ],
        )),
        exec(call(
            matmul_bt,
            vec![
                i32c(T1),
                i32c(F),
                i32c(PP),
                i32c(nn),
                i32c(nn),
                i32c(nn),
                i32c(nn),
                i32c(nn),
                i32c(nn),
            ],
        )),
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(nn)),
            1,
            vec![st2(
                PP,
                local(i),
                local(i),
                nn,
                add(ld2(PP, local(i), local(i), nn), f64c(Q)),
            )],
        ),
        // T2 = H PP (M x N); S = T2 H^T + R I (M x M).
        exec(call(
            matmul,
            vec![
                i32c(H),
                i32c(PP),
                i32c(T2),
                i32c(mm),
                i32c(nn),
                i32c(nn),
                i32c(nn),
                i32c(nn),
                i32c(nn),
            ],
        )),
        exec(call(
            matmul_bt,
            vec![
                i32c(T2),
                i32c(H),
                i32c(S),
                i32c(mm),
                i32c(nn),
                i32c(mm),
                i32c(nn),
                i32c(nn),
                i32c(mm),
            ],
        )),
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(mm)),
            1,
            vec![st2(
                S,
                local(i),
                local(i),
                mm,
                add(ld2(S, local(i), local(i), mm), f64c(R)),
            )],
        ),
        // SI = S^-1 ; PHT = PP H^T (N x M) ; K = PHT SI (N x M).
        exec(call(invert4, vec![i32c(S), i32c(SI)])),
        exec(call(
            matmul_bt,
            vec![
                i32c(PP),
                i32c(H),
                i32c(PHT),
                i32c(nn),
                i32c(nn),
                i32c(mm),
                i32c(nn),
                i32c(nn),
                i32c(mm),
            ],
        )),
        exec(call(
            matmul,
            vec![
                i32c(PHT),
                i32c(SI),
                i32c(K),
                i32c(nn),
                i32c(mm),
                i32c(mm),
                i32c(mm),
                i32c(mm),
                i32c(mm),
            ],
        )),
        // y = z - H xp.
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(mm)),
            1,
            vec![
                set(acc, f64c(0.0)),
                for_loop(
                    j,
                    i32c(0),
                    lt_s(local(j), i32c(nn)),
                    1,
                    vec![set(
                        acc,
                        add(
                            local(acc),
                            mul(ld2(H, local(i), local(j), nn), ld1(XP, local(j))),
                        ),
                    )],
                ),
                st1(Y, local(i), sub(ld1(Z, local(i)), local(acc))),
            ],
        ),
        // x = xp + K y → OUT[0..8].
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(nn)),
            1,
            vec![
                set(acc, f64c(0.0)),
                for_loop(
                    j,
                    i32c(0),
                    lt_s(local(j), i32c(mm)),
                    1,
                    vec![set(
                        acc,
                        add(
                            local(acc),
                            mul(ld2(K, local(i), local(j), mm), ld1(Y, local(j))),
                        ),
                    )],
                ),
                st1(OUT, local(i), add(ld1(XP, local(i)), local(acc))),
            ],
        ),
        // KH = K H (N x N); P' = (I - KH) PP → OUT + 64.
        exec(call(
            matmul,
            vec![
                i32c(K),
                i32c(H),
                i32c(KH),
                i32c(nn),
                i32c(mm),
                i32c(nn),
                i32c(mm),
                i32c(nn),
                i32c(nn),
            ],
        )),
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(nn)),
            1,
            vec![for_loop(
                j,
                i32c(0),
                lt_s(local(j), i32c(nn)),
                1,
                vec![st2(
                    KH,
                    local(i),
                    local(j),
                    nn,
                    sub(
                        select(eq(local(i), local(j)), f64c(1.0), f64c(0.0)),
                        ld2(KH, local(i), local(j), nn),
                    ),
                )],
            )],
        ),
        exec(call(
            matmul,
            vec![
                i32c(KH),
                i32c(PP),
                {
                    let out_p = OUT + 8 * nn;
                    i32c(out_p)
                },
                i32c(nn),
                i32c(nn),
                i32c(nn),
                i32c(nn),
                i32c(nn),
                i32c(nn),
            ],
        )),
        write_response(&env, i32c(OUT), i32c(8 * (nn + nn * nn))),
        ret(Some(i32c(0))),
    ]);
    f.extend(body);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    // Silence "unused" address-expr helper imports.
    let _ = f64_addr2(0, i32c(0), i32c(0), 1);
    mb.build().expect("ekf module")
}

// ------------------------------------------------------------------ native

fn matmul_n(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    n: usize,
    m: usize,
    k: usize,
    sa: usize,
    sb: usize,
    sc: usize,
) {
    for i in 0..n {
        for j in 0..k {
            let mut acc = 0.0;
            for l in 0..m {
                acc += a[i * sa + l] * b[l * sb + j];
            }
            c[i * sc + j] = acc;
        }
    }
}

fn matmul_bt_n(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    n: usize,
    m: usize,
    k: usize,
    sa: usize,
    sb: usize,
    sc: usize,
) {
    for i in 0..n {
        for j in 0..k {
            let mut acc = 0.0;
            for l in 0..m {
                acc += a[i * sa + l] * b[j * sb + l];
            }
            c[i * sc + j] = acc;
        }
    }
}

fn invert4_n(src: &[f64], dst: &mut [f64]) {
    let mut aug = [[0.0f64; 8]; 4];
    for i in 0..4 {
        for j in 0..4 {
            aug[i][j] = src[i * 4 + j];
            aug[i][j + 4] = if i == j { 1.0 } else { 0.0 };
        }
    }
    for i in 0..4 {
        let piv = aug[i][i];
        for j in 0..8 {
            aug[i][j] /= piv;
        }
        for r in 0..4 {
            if r != i {
                let fac = aug[r][i];
                for j in 0..8 {
                    aug[r][j] -= fac * aug[i][j];
                }
            }
        }
    }
    for i in 0..4 {
        for j in 0..4 {
            dst[i * 4 + j] = aug[i][j + 4];
        }
    }
}

/// Native reference implementation. Same operation order as the guest so
/// outputs are bitwise identical.
pub fn native(body: &[u8]) -> Vec<u8> {
    if body.len() < 8 * (N + N * N + M) {
        return b"short request".to_vec();
    }
    let f64_at = |i: usize| f64::from_le_bytes(body[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    let x: Vec<f64> = (0..N).map(f64_at).collect();
    let p: Vec<f64> = (N..N + N * N).map(f64_at).collect();
    let z: Vec<f64> = (N + N * N..N + N * N + M).map(f64_at).collect();

    // Build F and H exactly as the guest does.
    let mut fm = vec![0.0f64; N * N];
    for i in 0..N {
        fm[i * N + i] = 1.0;
    }
    for i in 0..M {
        fm[(2 * i) * N + 2 * i + 1] = DT;
    }
    let mut h = vec![0.0f64; M * N];
    for i in 0..M {
        h[i * N + 2 * i] = 1.0;
    }

    let mut xp = vec![0.0f64; N];
    matmul_n(&fm, &x, &mut xp, N, N, 1, N, 1, 1);
    let mut t1 = vec![0.0f64; N * N];
    matmul_n(&fm, &p, &mut t1, N, N, N, N, N, N);
    let mut pp = vec![0.0f64; N * N];
    matmul_bt_n(&t1, &fm, &mut pp, N, N, N, N, N, N);
    for i in 0..N {
        pp[i * N + i] += Q;
    }
    let mut t2 = vec![0.0f64; M * N];
    matmul_n(&h, &pp, &mut t2, M, N, N, N, N, N);
    let mut s = vec![0.0f64; M * M];
    matmul_bt_n(&t2, &h, &mut s, M, N, M, N, N, M);
    for i in 0..M {
        s[i * M + i] += R;
    }
    let mut si = vec![0.0f64; M * M];
    invert4_n(&s, &mut si);
    let mut pht = vec![0.0f64; N * M];
    matmul_bt_n(&pp, &h, &mut pht, N, N, M, N, N, M);
    let mut k = vec![0.0f64; N * M];
    matmul_n(&pht, &si, &mut k, N, M, M, M, M, M);
    let mut y = [0.0f64; M];
    for i in 0..M {
        let mut acc = 0.0;
        for j in 0..N {
            acc += h[i * N + j] * xp[j];
        }
        y[i] = z[i] - acc;
    }
    let mut x_new = [0.0f64; N];
    for i in 0..N {
        let mut acc = 0.0;
        for j in 0..M {
            acc += k[i * M + j] * y[j];
        }
        x_new[i] = xp[i] + acc;
    }
    let mut kh = vec![0.0f64; N * N];
    matmul_n(&k, &h, &mut kh, N, M, N, M, N, N);
    for i in 0..N {
        for j in 0..N {
            kh[i * N + j] = (if i == j { 1.0 } else { 0.0 }) - kh[i * N + j];
        }
    }
    let mut p_new = vec![0.0f64; N * N];
    matmul_n(&kh, &pp, &mut p_new, N, N, N, N, N, N);

    let mut out = Vec::with_capacity(8 * (N + N * N));
    for v in x_new.iter().chain(p_new.iter()) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// A representative request: initial state at the origin, identity
/// covariance, a plausible GPS fix.
pub fn sample_input() -> Vec<u8> {
    let mut x = [0.0f64; N];
    for (i, v) in x.iter_mut().enumerate() {
        *v = i as f64 * 0.5;
    }
    let mut p = [0.0f64; N * N];
    for i in 0..N {
        p[i * N + i] = 1.0;
    }
    let z = [0.9f64, 1.6, 2.4, 3.1];
    let mut out = Vec::with_capacity(8 * (N + N * N + M));
    for v in x.iter().chain(p.iter()).chain(z.iter()) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_guest, run_guest_every_way};

    #[test]
    fn guest_matches_native_bitwise() {
        let m = module();
        let input = sample_input();
        let got = run_guest(&m, &input);
        let want = native(&input);
        assert_eq!(got.len(), want.len());
        assert_eq!(got, want, "EKF guest and native outputs differ");
    }

    #[test]
    fn all_configs_agree() {
        let m = module();
        let input = sample_input();
        let out = run_guest_every_way(&m, &input);
        assert_eq!(out, native(&input));
    }

    #[test]
    fn repeated_filtering_converges_position() {
        // Feed the output state back with a constant measurement: the
        // estimated positions should approach the measurement.
        let m = module();
        let mut state = sample_input();
        let z_bytes: Vec<u8> = [10.0f64, 20.0, 30.0, 40.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        for _ in 0..60 {
            let out = run_guest(&m, &state);
            state = [out.as_slice(), z_bytes.as_slice()].concat();
        }
        let pos0 = f64::from_le_bytes(state[0..8].try_into().unwrap());
        assert!((pos0 - 10.0).abs() < 0.5, "pos0 = {pos0}");
    }

    #[test]
    fn short_request_is_graceful() {
        assert_eq!(native(b"tiny"), b"short request".to_vec());
    }
}
