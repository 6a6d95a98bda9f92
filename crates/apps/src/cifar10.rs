//! CIFAR10: fixed-weight integer CNN inference, the reproduction of the
//! paper's CMSIS-NN CIFAR-10 workload.
//!
//! Architecture (scaled to interpreter-friendly size while keeping the
//! conv→pool→conv→pool→fc structure and integer arithmetic of CMSIS-NN):
//!
//! * input: 16x16 RGB image (768 bytes)
//! * conv1: 3→8 channels, 3x3, pad 1, ReLU, then 2x2 max-pool → 8x8x8
//! * conv2: 8→16 channels, 3x3, pad 1, ReLU, then 2x2 max-pool → 4x4x16
//! * fc: 256 → 10 logits, argmax
//!
//! Weights are deterministic pseudo-random int8 (both implementations use
//! the identical table, baked into the guest as a data segment). All
//! arithmetic is exact integer math, so guest and native outputs are
//! bit-identical.
//!
//! The response is one ASCII digit: the predicted class (the paper's
//! function "writes the number associated with the resulting class").

use crate::abi::{import_env, read_request, write_response};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, Local, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;

/// Input image side.
pub const IN: usize = 16;
/// conv1 output channels.
const C1: usize = 8;
/// conv2 output channels.
const C2: usize = 16;
/// Classes.
pub const CLASSES: usize = 10;
/// Right-shift used to requantize accumulators.
const SHIFT: i32 = 5;

// Weight table sizes.
const W1_LEN: usize = C1 * 3 * 3 * 3; // [oc][ic][ky][kx]
const B1_LEN: usize = C1;
const W2_LEN: usize = C2 * C1 * 3 * 3;
const B2_LEN: usize = C2;
const FC_LEN: usize = CLASSES * C2 * 4 * 4;
const BFC_LEN: usize = CLASSES;

/// Deterministic int8 weights shared by guest and native implementations.
pub struct Weights {
    pub w1: Vec<i8>,
    pub b1: Vec<i32>,
    pub w2: Vec<i8>,
    pub b2: Vec<i32>,
    pub fc: Vec<i8>,
    pub bfc: Vec<i32>,
}

/// Generate the fixed weight set.
pub fn weights() -> Weights {
    let mut state = 0xC1FA10u32 ^ 0xA5A5_5A5A;
    let mut next_i8 = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        (state & 0xFF) as u8 as i8 >> 1 // range ~[-64, 63]
    };
    let mut take = |n: usize| -> Vec<i8> { (0..n).map(|_| next_i8()).collect() };
    let w1 = take(W1_LEN);
    let b1: Vec<i32> = take(B1_LEN).iter().map(|v| *v as i32 * 4).collect();
    let w2 = take(W2_LEN);
    let b2: Vec<i32> = take(B2_LEN).iter().map(|v| *v as i32 * 4).collect();
    let fc = take(FC_LEN);
    let bfc: Vec<i32> = take(BFC_LEN).iter().map(|v| *v as i32 * 4).collect();
    Weights {
        w1,
        b1,
        w2,
        b2,
        fc,
        bfc,
    }
}

// Guest memory layout.
const WSEG: i32 = 64; // all weights, contiguous
const RX: i32 = 16384; // input image (u8, [y][x][c])
const ACT1: i32 = 20480; // conv1 output i32 [c][y][x] 8x16x16
const POOL1: i32 = ACT1 + 4 * (C1 * IN * IN) as i32; // 8x8x8
const ACT2: i32 = POOL1 + 4 * (C1 * 8 * 8) as i32; // 16x8x8
const POOL2: i32 = ACT2 + 4 * (C2 * 8 * 8) as i32; // 16x4x4
const LOGITS: i32 = POOL2 + 4 * (C2 * 4 * 4) as i32;
const OUT: i32 = LOGITS + 4 * CLASSES as i32;

fn wseg_bytes(w: &Weights) -> (Vec<u8>, [i32; 6]) {
    // Layout: w1 | w2 | fc | b1 | b2 | bfc (biases as i32 LE).
    let mut bytes = Vec::new();
    let w1_off = WSEG;
    bytes.extend(w.w1.iter().map(|v| *v as u8));
    let w2_off = WSEG + bytes.len() as i32;
    bytes.extend(w.w2.iter().map(|v| *v as u8));
    let fc_off = WSEG + bytes.len() as i32;
    bytes.extend(w.fc.iter().map(|v| *v as u8));
    let b1_off = WSEG + bytes.len() as i32;
    for v in &w.b1 {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let b2_off = WSEG + bytes.len() as i32;
    for v in &w.b2 {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let bfc_off = WSEG + bytes.len() as i32;
    for v in &w.bfc {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    (bytes, [w1_off, w2_off, fc_off, b1_off, b2_off, bfc_off])
}

/// Build the CNN guest module.
pub fn module() -> Module {
    let mut mb = ModuleBuilder::new("cifar10");
    mb.memory(4, Some(8));
    let env = import_env(&mut mb);
    let (bytes, [w1o, w2o, fco, b1o, b2o, bfco]) = wseg_bytes(&weights());
    mb.data(WSEG as u32, bytes);

    use ValType::I32;

    // conv3x3(in_base, out_base, in_ch, out_ch, size, w_base, b_base):
    // input  i32 planes [ic][y][x] at in_base (or u8 interleaved for layer 1 — handled
    // by a separate first-layer function below),
    // output i32 planes [oc][y][x], ReLU + >>SHIFT.
    let conv = {
        let mut f = FuncBuilder::new(&[I32; 7], None);
        let (inb, outb) = (f.arg(0), f.arg(1));
        let (ic_n, oc_n, size) = (f.arg(2), f.arg(3), f.arg(4));
        let (wb, bb) = (f.arg(5), f.arg(6));
        let oc = f.local(I32);
        let y = f.local(I32);
        let x = f.local(I32);
        let ic = f.local(I32);
        let ky = f.local(I32);
        let kx = f.local(I32);
        let acc = f.local(I32);
        let iy = f.local(I32);
        let ix = f.local(I32);
        let widx = f.local(I32);

        let in_at = |icv: Local, iyv: Local, ixv: Local| {
            load(
                Scalar::I32,
                add(
                    local(inb),
                    mul(
                        add(
                            mul(add(mul(local(icv), local(size)), local(iyv)), local(size)),
                            local(ixv),
                        ),
                        i32c(4),
                    ),
                ),
                0,
            )
        };

        f.push(for_loop(
            oc,
            i32c(0),
            lt_s(local(oc), local(oc_n)),
            1,
            vec![for_loop(
                y,
                i32c(0),
                lt_s(local(y), local(size)),
                1,
                vec![for_loop(
                    x,
                    i32c(0),
                    lt_s(local(x), local(size)),
                    1,
                    vec![
                        set(
                            acc,
                            load(Scalar::I32, add(local(bb), mul(local(oc), i32c(4))), 0),
                        ),
                        for_loop(
                            ic,
                            i32c(0),
                            lt_s(local(ic), local(ic_n)),
                            1,
                            vec![for_loop(
                                ky,
                                i32c(0),
                                lt_s(local(ky), i32c(3)),
                                1,
                                vec![
                                    set(iy, sub(add(local(y), local(ky)), i32c(1))),
                                    if_(
                                        and(ge_s(local(iy), i32c(0)), lt_s(local(iy), local(size))),
                                        vec![for_loop(
                                            kx,
                                            i32c(0),
                                            lt_s(local(kx), i32c(3)),
                                            1,
                                            vec![
                                                set(ix, sub(add(local(x), local(kx)), i32c(1))),
                                                if_(
                                                    and(
                                                        ge_s(local(ix), i32c(0)),
                                                        lt_s(local(ix), local(size)),
                                                    ),
                                                    vec![
                                                        // w[oc][ic][ky][kx]
                                                        set(
                                                            widx,
                                                            add(
                                                                mul(
                                                                    add(
                                                                        mul(
                                                                            add(
                                                                                mul(
                                                                                    local(oc),
                                                                                    local(ic_n),
                                                                                ),
                                                                                local(ic),
                                                                            ),
                                                                            i32c(3),
                                                                        ),
                                                                        local(ky),
                                                                    ),
                                                                    i32c(3),
                                                                ),
                                                                local(kx),
                                                            ),
                                                        ),
                                                        set(
                                                            acc,
                                                            add(
                                                                local(acc),
                                                                mul(
                                                                    in_at(ic, iy, ix),
                                                                    load(
                                                                        Scalar::I8,
                                                                        add(local(wb), local(widx)),
                                                                        0,
                                                                    ),
                                                                ),
                                                            ),
                                                        ),
                                                    ],
                                                ),
                                            ],
                                        )],
                                    ),
                                ],
                            )],
                        ),
                        // ReLU + requantize.
                        set(acc, shr_s(local(acc), i32c(SHIFT))),
                        set(acc, select(gt_s(local(acc), i32c(0)), local(acc), i32c(0))),
                        store(
                            Scalar::I32,
                            add(
                                local(outb),
                                mul(
                                    add(
                                        mul(
                                            add(mul(local(oc), local(size)), local(y)),
                                            local(size),
                                        ),
                                        local(x),
                                    ),
                                    i32c(4),
                                ),
                            ),
                            0,
                            local(acc),
                        ),
                    ],
                )],
            )],
        ));
        mb.add_func("conv", f)
    };

    // conv_in(out_base, w_base, b_base): first layer over the u8 interleaved
    // input image [y][x][c] at RX, 3 input channels, IN x IN.
    let conv_in = {
        let mut f = FuncBuilder::new(&[I32; 3], None);
        let (outb, wb, bb) = (f.arg(0), f.arg(1), f.arg(2));
        let oc = f.local(I32);
        let y = f.local(I32);
        let x = f.local(I32);
        let ic = f.local(I32);
        let ky = f.local(I32);
        let kx = f.local(I32);
        let acc = f.local(I32);
        let iy = f.local(I32);
        let ix = f.local(I32);
        let n = IN as i32;
        f.push(for_loop(oc, i32c(0), lt_s(local(oc), i32c(C1 as i32)), 1, vec![
            for_loop(y, i32c(0), lt_s(local(y), i32c(n)), 1, vec![
                for_loop(x, i32c(0), lt_s(local(x), i32c(n)), 1, vec![
                    set(acc, load(Scalar::I32, add(local(bb), mul(local(oc), i32c(4))), 0)),
                    for_loop(ic, i32c(0), lt_s(local(ic), i32c(3)), 1, vec![
                        for_loop(ky, i32c(0), lt_s(local(ky), i32c(3)), 1, vec![
                            set(iy, sub(add(local(y), local(ky)), i32c(1))),
                            if_(and(ge_s(local(iy), i32c(0)), lt_s(local(iy), i32c(n))), vec![
                                for_loop(kx, i32c(0), lt_s(local(kx), i32c(3)), 1, vec![
                                    set(ix, sub(add(local(x), local(kx)), i32c(1))),
                                    if_(and(ge_s(local(ix), i32c(0)), lt_s(local(ix), i32c(n))), vec![
                                        set(acc, add(local(acc), mul(
                                            // image[y][x][c], centered to [-128, 127]
                                            sub(load(Scalar::U8,
                                                add(i32c(RX), add(mul(add(mul(local(iy), i32c(n)), local(ix)), i32c(3)), local(ic))), 0),
                                                i32c(128)),
                                            load(Scalar::I8, add(local(wb),
                                                add(mul(add(mul(add(mul(local(oc), i32c(3)), local(ic)), i32c(3)), local(ky)), i32c(3)), local(kx))), 0),
                                        ))),
                                    ]),
                                ]),
                            ]),
                        ]),
                    ]),
                    set(acc, shr_s(local(acc), i32c(SHIFT))),
                    set(acc, select(gt_s(local(acc), i32c(0)), local(acc), i32c(0))),
                    store(Scalar::I32,
                        add(local(outb), mul(add(mul(add(mul(local(oc), i32c(n)), local(y)), i32c(n)), local(x)), i32c(4))),
                        0, local(acc)),
                ]),
            ]),
        ]));
        mb.add_func("conv_in", f)
    };

    // pool2(in_base, out_base, ch, size): 2x2 max pool, i32 planes.
    let pool = {
        let mut f = FuncBuilder::new(&[I32; 4], None);
        let (inb, outb, ch, size) = (f.arg(0), f.arg(1), f.arg(2), f.arg(3));
        let c = f.local(I32);
        let y = f.local(I32);
        let x = f.local(I32);
        let m = f.local(I32);
        let v = f.local(I32);
        let half = f.local(I32);
        let dy = f.local(I32);
        let dx = f.local(I32);
        // input[c][yy][xx] where yy = 2y+dy, xx = 2x+dx.
        let in_at = load(
            Scalar::I32,
            add(
                local(inb),
                mul(
                    add(
                        mul(
                            add(
                                mul(local(c), local(size)),
                                add(mul(local(y), i32c(2)), local(dy)),
                            ),
                            local(size),
                        ),
                        add(mul(local(x), i32c(2)), local(dx)),
                    ),
                    i32c(4),
                ),
            ),
            0,
        );
        f.extend([
            set(half, div(local(size), i32c(2))),
            for_loop(
                c,
                i32c(0),
                lt_s(local(c), local(ch)),
                1,
                vec![for_loop(
                    y,
                    i32c(0),
                    lt_s(local(y), local(half)),
                    1,
                    vec![for_loop(
                        x,
                        i32c(0),
                        lt_s(local(x), local(half)),
                        1,
                        vec![
                            set(m, i32c(i32::MIN)),
                            for_loop(
                                dy,
                                i32c(0),
                                lt_s(local(dy), i32c(2)),
                                1,
                                vec![for_loop(
                                    dx,
                                    i32c(0),
                                    lt_s(local(dx), i32c(2)),
                                    1,
                                    vec![
                                        set(v, in_at.clone()),
                                        set(
                                            m,
                                            select(gt_s(local(v), local(m)), local(v), local(m)),
                                        ),
                                    ],
                                )],
                            ),
                            store(
                                Scalar::I32,
                                add(
                                    local(outb),
                                    mul(
                                        add(
                                            mul(
                                                add(mul(local(c), local(half)), local(y)),
                                                local(half),
                                            ),
                                            local(x),
                                        ),
                                        i32c(4),
                                    ),
                                ),
                                0,
                                local(m),
                            ),
                        ],
                    )],
                )],
            ),
        ]);
        mb.add_func("pool", f)
    };

    let nn = IN as i32;
    let mut f = FuncBuilder::new(&[], Some(I32));
    let len = f.local(I32);
    let i = f.local(I32);
    let j = f.local(I32);
    let acc = f.local(I32);
    let best = f.local(I32);
    let best_i = f.local(I32);

    let mut body = read_request(&env, RX, len);
    body.extend([
        exec(call(conv_in, vec![i32c(ACT1), i32c(w1o), i32c(b1o)])),
        exec(call(
            pool,
            vec![i32c(ACT1), i32c(POOL1), i32c(C1 as i32), i32c(nn)],
        )),
        exec(call(
            conv,
            vec![
                i32c(POOL1),
                i32c(ACT2),
                i32c(C1 as i32),
                i32c(C2 as i32),
                i32c(nn / 2),
                i32c(w2o),
                i32c(b2o),
            ],
        )),
        exec(call(
            pool,
            vec![i32c(ACT2), i32c(POOL2), i32c(C2 as i32), i32c(nn / 2)],
        )),
        // Fully connected: logits[k] = bfc[k] + Σ fc[k][i] * pool2[i].
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(CLASSES as i32)),
            1,
            vec![
                set(
                    acc,
                    load(Scalar::I32, add(i32c(bfco), mul(local(i), i32c(4))), 0),
                ),
                for_loop(
                    j,
                    i32c(0),
                    lt_s(local(j), i32c((C2 * 4 * 4) as i32)),
                    1,
                    vec![set(
                        acc,
                        add(
                            local(acc),
                            mul(
                                load(Scalar::I32, add(i32c(POOL2), mul(local(j), i32c(4))), 0),
                                load(
                                    Scalar::I8,
                                    add(
                                        i32c(fco),
                                        add(mul(local(i), i32c((C2 * 4 * 4) as i32)), local(j)),
                                    ),
                                    0,
                                ),
                            ),
                        ),
                    )],
                ),
                store(
                    Scalar::I32,
                    add(i32c(LOGITS), mul(local(i), i32c(4))),
                    0,
                    local(acc),
                ),
            ],
        ),
        // Argmax.
        set(best, i32c(i32::MIN)),
        set(best_i, i32c(0)),
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), i32c(CLASSES as i32)),
            1,
            vec![
                set(
                    acc,
                    load(Scalar::I32, add(i32c(LOGITS), mul(local(i), i32c(4))), 0),
                ),
                if_(
                    gt_s(local(acc), local(best)),
                    vec![set(best, local(acc)), set(best_i, local(i))],
                ),
            ],
        ),
        store(
            Scalar::U8,
            i32c(OUT),
            0,
            add(local(best_i), i32c('0' as i32)),
        ),
        write_response(&env, i32c(OUT), i32c(1)),
        ret(Some(i32c(0))),
    ]);
    f.extend(body);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("cifar10 module")
}

// ------------------------------------------------------------------ native

/// Native reference inference; identical integer arithmetic.
pub fn native(body: &[u8]) -> Vec<u8> {
    let w = weights();
    let img = |y: usize, x: usize, c: usize| -> i32 {
        body.get((y * IN + x) * 3 + c).copied().unwrap_or(0) as i32 - 128
    };

    // conv1 over the interleaved image.
    let mut act1 = vec![0i32; C1 * IN * IN];
    for oc in 0..C1 {
        for y in 0..IN {
            for x in 0..IN {
                let mut acc = w.b1[oc];
                for ic in 0..3 {
                    for ky in 0..3 {
                        let iy = y as i32 + ky as i32 - 1;
                        if iy < 0 || iy >= IN as i32 {
                            continue;
                        }
                        for kx in 0..3 {
                            let ix = x as i32 + kx as i32 - 1;
                            if ix < 0 || ix >= IN as i32 {
                                continue;
                            }
                            acc += img(iy as usize, ix as usize, ic)
                                * w.w1[((oc * 3 + ic) * 3 + ky) * 3 + kx] as i32;
                        }
                    }
                }
                acc >>= SHIFT;
                act1[(oc * IN + y) * IN + x] = acc.max(0);
            }
        }
    }
    let pool1 = pool2_native(&act1, C1, IN);
    let act2 = conv_native(&pool1, C1, C2, IN / 2, &w.w2, &w.b2);
    let pool2 = pool2_native(&act2, C2, IN / 2);
    // FC.
    let mut best = i32::MIN;
    let mut best_i = 0usize;
    for k in 0..CLASSES {
        let mut acc = w.bfc[k];
        for (j, p) in pool2.iter().enumerate() {
            acc += p * w.fc[k * pool2.len() + j] as i32;
        }
        if acc > best {
            best = acc;
            best_i = k;
        }
    }
    vec![b'0' + best_i as u8]
}

fn conv_native(
    input: &[i32],
    ic_n: usize,
    oc_n: usize,
    size: usize,
    wt: &[i8],
    bias: &[i32],
) -> Vec<i32> {
    let mut out = vec![0i32; oc_n * size * size];
    for oc in 0..oc_n {
        for y in 0..size {
            for x in 0..size {
                let mut acc = bias[oc];
                for ic in 0..ic_n {
                    for ky in 0..3 {
                        let iy = y as i32 + ky as i32 - 1;
                        if iy < 0 || iy >= size as i32 {
                            continue;
                        }
                        for kx in 0..3 {
                            let ix = x as i32 + kx as i32 - 1;
                            if ix < 0 || ix >= size as i32 {
                                continue;
                            }
                            acc += input[(ic * size + iy as usize) * size + ix as usize]
                                * wt[((oc * ic_n + ic) * 3 + ky) * 3 + kx] as i32;
                        }
                    }
                }
                acc >>= SHIFT;
                out[(oc * size + y) * size + x] = acc.max(0);
            }
        }
    }
    out
}

fn pool2_native(input: &[i32], ch: usize, size: usize) -> Vec<i32> {
    let half = size / 2;
    let mut out = vec![0i32; ch * half * half];
    for c in 0..ch {
        for y in 0..half {
            for x in 0..half {
                let mut m = i32::MIN;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let v = input[(c * size + y * 2 + dy) * size + x * 2 + dx];
                        m = m.max(v);
                    }
                }
                out[(c * half + y) * half + x] = m;
            }
        }
    }
    out
}

/// A deterministic synthetic "airplane-ish" test image: sky gradient with a
/// bright fuselage band.
pub fn sample_input() -> Vec<u8> {
    let mut img = vec![0u8; IN * IN * 3];
    for y in 0..IN {
        for x in 0..IN {
            let sky = 120 + (y * 6) as i32;
            let body = if (6..=9).contains(&y) && (2..=13).contains(&x) {
                90
            } else {
                0
            };
            let px = &mut img[(y * IN + x) * 3..(y * IN + x) * 3 + 3];
            px[0] = (sky / 2 + body).clamp(0, 255) as u8;
            px[1] = (sky / 2 + body + 10).clamp(0, 255) as u8;
            px[2] = (sky + body).clamp(0, 255) as u8;
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_guest, run_guest_every_way};

    #[test]
    fn guest_matches_native() {
        let m = module();
        let img = sample_input();
        let got = run_guest(&m, &img);
        let want = native(&img);
        assert_eq!(got, want);
        assert!(got[0].is_ascii_digit());
    }

    #[test]
    fn all_configs_agree() {
        let m = module();
        let img = sample_input();
        let out = run_guest_every_way(&m, &img);
        assert_eq!(out, native(&img));
    }

    #[test]
    fn different_images_can_classify_differently() {
        // Not a accuracy test (weights are random); just exercise multiple
        // inputs and check determinism.
        let m = module();
        let a = sample_input();
        let mut b = sample_input();
        for p in b.iter_mut() {
            *p = p.wrapping_mul(3).wrapping_add(17);
        }
        assert_eq!(run_guest(&m, &a), native(&a));
        assert_eq!(run_guest(&m, &b), native(&b));
    }
}
