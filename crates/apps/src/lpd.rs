//! LPD: license-plate detection — the reproduction of the paper's SOD
//! license-plate workload (read an image containing a plate, find a bounding
//! box around it, return the image with the box drawn).
//!
//! Algorithm (a classical edge-density detector, the computational class of
//! SOD's pipeline): RGB → grayscale, Sobel gradient magnitude, binarize,
//! sliding-window vertical-edge-density score over plate-shaped windows,
//! pick the best window, draw its rectangle into a copy of the input.
//!
//! Request layout: `u32 width | u32 height | RGB24 pixels`.
//! Response layout: the same image with a red box drawn.

use crate::abi::{import_env, read_request, write_response};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;

/// Plate window width (pixels).
const WIN_W: i32 = 40;
/// Plate window height.
const WIN_H: i32 = 12;
/// Window scan stride.
const STRIDE: i32 = 4;
/// Gradient binarization threshold.
const THRESH: i32 = 96;

const RX: i32 = 262144; // input image
const GRAY: i32 = 655360; // grayscale u8 plane
const EDGE: i32 = 786432; // binarized edges u8 plane
const OUT_META: i32 = 64; // best (score, x, y) scratch

/// Build the LPD guest module.
pub fn module() -> Module {
    let mut mb = ModuleBuilder::new("lpd");
    mb.memory(18, Some(32));
    let env = import_env(&mut mb);

    use ValType::I32;
    let mut f = FuncBuilder::new(&[], Some(I32));
    let len = f.local(I32);
    let w = f.local(I32);
    let h = f.local(I32);
    let x = f.local(I32);
    let y = f.local(I32);
    let gx = f.local(I32);
    let gy = f.local(I32);
    let mag = f.local(I32);
    let score = f.local(I32);
    let best = f.local(I32);
    let bx = f.local(I32);
    let by = f.local(I32);
    let dx = f.local(I32);
    let dy = f.local(I32);

    // gray[y][x]
    let g_at = |yy: Expr, xx: Expr, wl: sledge_guestc::Local| {
        load(Scalar::U8, add(i32c(GRAY), add(mul(yy, local(wl)), xx)), 0)
    };
    // src pixel channel
    let px_at = |yy: Expr, xx: Expr, cc: i32, wl: sledge_guestc::Local| {
        load(
            Scalar::U8,
            add(
                i32c(RX + 8),
                add(mul(add(mul(yy, local(wl)), xx), i32c(3)), i32c(cc)),
            ),
            0,
        )
    };
    // address of output pixel channel
    let out_px = |yy: Expr, xx: Expr, cc: i32, wl: sledge_guestc::Local| {
        add(
            i32c(RX + 8),
            add(mul(add(mul(yy, local(wl)), xx), i32c(3)), i32c(cc)),
        )
    };

    let mut body = read_request(&env, RX, len);
    body.extend([
        set(w, load(Scalar::I32, i32c(RX), 0)),
        set(h, load(Scalar::I32, i32c(RX), 4)),
        // Grayscale: (r*77 + g*151 + b*28) >> 8.
        for_loop(
            y,
            i32c(0),
            lt_s(local(y), local(h)),
            1,
            vec![for_loop(
                x,
                i32c(0),
                lt_s(local(x), local(w)),
                1,
                vec![store(
                    Scalar::U8,
                    add(i32c(GRAY), add(mul(local(y), local(w)), local(x))),
                    0,
                    shr_u(
                        add(
                            add(
                                mul(px_at(local(y), local(x), 0, w), i32c(77)),
                                mul(px_at(local(y), local(x), 1, w), i32c(151)),
                            ),
                            mul(px_at(local(y), local(x), 2, w), i32c(28)),
                        ),
                        i32c(8),
                    ),
                )],
            )],
        ),
        // Sobel + binarize into EDGE (borders zero).
        for_loop(
            y,
            i32c(1),
            lt_s(local(y), sub(local(h), i32c(1))),
            1,
            vec![for_loop(
                x,
                i32c(1),
                lt_s(local(x), sub(local(w), i32c(1))),
                1,
                vec![
                    set(
                        gx,
                        sub(
                            add(
                                add(
                                    g_at(sub(local(y), i32c(1)), add(local(x), i32c(1)), w),
                                    mul(g_at(local(y), add(local(x), i32c(1)), w), i32c(2)),
                                ),
                                g_at(add(local(y), i32c(1)), add(local(x), i32c(1)), w),
                            ),
                            add(
                                add(
                                    g_at(sub(local(y), i32c(1)), sub(local(x), i32c(1)), w),
                                    mul(g_at(local(y), sub(local(x), i32c(1)), w), i32c(2)),
                                ),
                                g_at(add(local(y), i32c(1)), sub(local(x), i32c(1)), w),
                            ),
                        ),
                    ),
                    set(
                        gy,
                        sub(
                            add(
                                add(
                                    g_at(add(local(y), i32c(1)), sub(local(x), i32c(1)), w),
                                    mul(g_at(add(local(y), i32c(1)), local(x), w), i32c(2)),
                                ),
                                g_at(add(local(y), i32c(1)), add(local(x), i32c(1)), w),
                            ),
                            add(
                                add(
                                    g_at(sub(local(y), i32c(1)), sub(local(x), i32c(1)), w),
                                    mul(g_at(sub(local(y), i32c(1)), local(x), w), i32c(2)),
                                ),
                                g_at(sub(local(y), i32c(1)), add(local(x), i32c(1)), w),
                            ),
                        ),
                    ),
                    // |gx| + |gy|, with a bias toward vertical strokes (|gx|),
                    // characteristic of plate glyphs.
                    set(
                        mag,
                        add(
                            mul(
                                select(
                                    lt_s(local(gx), i32c(0)),
                                    sub(i32c(0), local(gx)),
                                    local(gx),
                                ),
                                i32c(2),
                            ),
                            select(lt_s(local(gy), i32c(0)), sub(i32c(0), local(gy)), local(gy)),
                        ),
                    ),
                    store(
                        Scalar::U8,
                        add(i32c(EDGE), add(mul(local(y), local(w)), local(x))),
                        0,
                        select(gt_s(local(mag), i32c(THRESH)), i32c(1), i32c(0)),
                    ),
                ],
            )],
        ),
        // Sliding window scan.
        set(best, i32c(-1)),
        set(bx, i32c(0)),
        set(by, i32c(0)),
        for_loop(
            y,
            i32c(1),
            lt_s(local(y), sub(local(h), i32c(WIN_H + 1))),
            STRIDE,
            vec![for_loop(
                x,
                i32c(1),
                lt_s(local(x), sub(local(w), i32c(WIN_W + 1))),
                STRIDE,
                vec![
                    set(score, i32c(0)),
                    for_loop(
                        dy,
                        i32c(0),
                        lt_s(local(dy), i32c(WIN_H)),
                        1,
                        vec![for_loop(
                            dx,
                            i32c(0),
                            lt_s(local(dx), i32c(WIN_W)),
                            1,
                            vec![set(
                                score,
                                add(
                                    local(score),
                                    load(
                                        Scalar::U8,
                                        add(
                                            i32c(EDGE),
                                            add(
                                                mul(add(local(y), local(dy)), local(w)),
                                                add(local(x), local(dx)),
                                            ),
                                        ),
                                        0,
                                    ),
                                ),
                            )],
                        )],
                    ),
                    if_(
                        gt_s(local(score), local(best)),
                        vec![
                            set(best, local(score)),
                            set(bx, local(x)),
                            set(by, local(y)),
                        ],
                    ),
                ],
            )],
        ),
        store(Scalar::I32, i32c(OUT_META), 0, local(best)),
        // Draw the box (red) into the input copy: horizontal edges...
        for_loop(
            dx,
            i32c(0),
            lt_s(local(dx), i32c(WIN_W)),
            1,
            vec![
                store(
                    Scalar::U8,
                    out_px(local(by), add(local(bx), local(dx)), 0, w),
                    0,
                    i32c(255),
                ),
                store(
                    Scalar::U8,
                    out_px(local(by), add(local(bx), local(dx)), 1, w),
                    0,
                    i32c(0),
                ),
                store(
                    Scalar::U8,
                    out_px(local(by), add(local(bx), local(dx)), 2, w),
                    0,
                    i32c(0),
                ),
                store(
                    Scalar::U8,
                    out_px(
                        add(local(by), i32c(WIN_H - 1)),
                        add(local(bx), local(dx)),
                        0,
                        w,
                    ),
                    0,
                    i32c(255),
                ),
                store(
                    Scalar::U8,
                    out_px(
                        add(local(by), i32c(WIN_H - 1)),
                        add(local(bx), local(dx)),
                        1,
                        w,
                    ),
                    0,
                    i32c(0),
                ),
                store(
                    Scalar::U8,
                    out_px(
                        add(local(by), i32c(WIN_H - 1)),
                        add(local(bx), local(dx)),
                        2,
                        w,
                    ),
                    0,
                    i32c(0),
                ),
            ],
        ),
        // ...and vertical edges.
        for_loop(
            dy,
            i32c(0),
            lt_s(local(dy), i32c(WIN_H)),
            1,
            vec![
                store(
                    Scalar::U8,
                    out_px(add(local(by), local(dy)), local(bx), 0, w),
                    0,
                    i32c(255),
                ),
                store(
                    Scalar::U8,
                    out_px(add(local(by), local(dy)), local(bx), 1, w),
                    0,
                    i32c(0),
                ),
                store(
                    Scalar::U8,
                    out_px(add(local(by), local(dy)), local(bx), 2, w),
                    0,
                    i32c(0),
                ),
                store(
                    Scalar::U8,
                    out_px(
                        add(local(by), local(dy)),
                        add(local(bx), i32c(WIN_W - 1)),
                        0,
                        w,
                    ),
                    0,
                    i32c(255),
                ),
                store(
                    Scalar::U8,
                    out_px(
                        add(local(by), local(dy)),
                        add(local(bx), i32c(WIN_W - 1)),
                        1,
                        w,
                    ),
                    0,
                    i32c(0),
                ),
                store(
                    Scalar::U8,
                    out_px(
                        add(local(by), local(dy)),
                        add(local(bx), i32c(WIN_W - 1)),
                        2,
                        w,
                    ),
                    0,
                    i32c(0),
                ),
            ],
        ),
        write_response(
            &env,
            i32c(RX),
            add(i32c(8), mul(mul(local(w), local(h)), i32c(3))),
        ),
        ret(Some(i32c(0))),
    ]);
    f.extend(body);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("lpd module")
}

use sledge_guestc::Expr;

// ------------------------------------------------------------------ native

/// Native reference; identical pipeline and arithmetic.
pub fn native(body: &[u8]) -> Vec<u8> {
    if body.len() < 8 {
        return Vec::new();
    }
    let w = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
    let h = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes")) as usize;
    let mut out = body.to_vec();
    let px = |b: &[u8], y: usize, x: usize, c: usize| b[8 + (y * w + x) * 3 + c] as i32;

    let mut gray = vec![0u8; w * h];
    for y in 0..h {
        for x in 0..w {
            let v =
                (px(body, y, x, 0) * 77 + px(body, y, x, 1) * 151 + px(body, y, x, 2) * 28) >> 8;
            gray[y * w + x] = v as u8;
        }
    }
    let g = |y: usize, x: usize| gray[y * w + x] as i32;
    let mut edge = vec![0u8; w * h];
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let gx = (g(y - 1, x + 1) + 2 * g(y, x + 1) + g(y + 1, x + 1))
                - (g(y - 1, x - 1) + 2 * g(y, x - 1) + g(y + 1, x - 1));
            let gy = (g(y + 1, x - 1) + 2 * g(y + 1, x) + g(y + 1, x + 1))
                - (g(y - 1, x - 1) + 2 * g(y - 1, x) + g(y - 1, x + 1));
            let mag = 2 * gx.abs() + gy.abs();
            edge[y * w + x] = u8::from(mag > THRESH);
        }
    }
    let (mut best, mut bx, mut by) = (-1i32, 0usize, 0usize);
    let (win_w, win_h, stride) = (WIN_W as usize, WIN_H as usize, STRIDE as usize);
    let mut y = 1;
    while y < h.saturating_sub(win_h + 1) {
        let mut x = 1;
        while x < w.saturating_sub(win_w + 1) {
            let mut score = 0i32;
            for dy in 0..win_h {
                for dx in 0..win_w {
                    score += edge[(y + dy) * w + x + dx] as i32;
                }
            }
            if score > best {
                best = score;
                bx = x;
                by = y;
            }
            x += stride;
        }
        y += stride;
    }
    // Draw the box.
    let mut set_px = |y: usize, x: usize, rgb: [u8; 3]| {
        let o = 8 + (y * w + x) * 3;
        out[o..o + 3].copy_from_slice(&rgb);
    };
    for dx in 0..win_w {
        set_px(by, bx + dx, [255, 0, 0]);
        set_px(by + win_h - 1, bx + dx, [255, 0, 0]);
    }
    for dy in 0..win_h {
        set_px(by + dy, bx, [255, 0, 0]);
        set_px(by + dy, bx + win_w - 1, [255, 0, 0]);
    }
    out
}

/// Where the native detector put the box (for tests).
pub fn detect_native(body: &[u8]) -> (usize, usize) {
    let out = native(body);
    let w = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
    let h = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes")) as usize;
    for y in 0..h {
        for x in 0..w {
            let o = 8 + (y * w + x) * 3;
            if out[o] == 255 && out[o + 1] == 0 && out[o + 2] == 0 {
                return (x, y);
            }
        }
    }
    (0, 0)
}

/// Deterministic synthetic road scene with a license plate: a dark car body
/// with a bright plate region containing vertical glyph strokes at
/// `(plate_x, plate_y)`.
pub fn synth_scene(w: usize, h: usize, plate_x: usize, plate_y: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + w * h * 3);
    out.extend_from_slice(&(w as u32).to_le_bytes());
    out.extend_from_slice(&(h as u32).to_le_bytes());
    for y in 0..h {
        for x in 0..w {
            // Background: smooth gradient (low edge energy).
            let mut rgb = [(40 + y / 3) as u8, (45 + y / 3) as u8, (50 + x / 7) as u8];
            let in_plate = x >= plate_x
                && x < plate_x + WIN_W as usize - 4
                && y >= plate_y
                && y < plate_y + WIN_H as usize - 2;
            if in_plate {
                // White plate with black vertical strokes every 4 px.
                let stroke = (x - plate_x) % 4 < 1;
                let v = if stroke { 10 } else { 240 };
                rgb = [v, v, v];
            }
            out.extend_from_slice(&rgb);
        }
    }
    out
}

/// A representative input: 160x120 scene (≈ 57.6 KB RGB, the class of the
/// paper's 96.6 KB JPEG) with the plate at (92, 70).
pub fn sample_input() -> Vec<u8> {
    synth_scene(160, 120, 92, 70)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_guest, run_guest_every_way};

    #[test]
    fn native_finds_the_plate() {
        let img = synth_scene(160, 120, 92, 70);
        let (x, y) = detect_native(&img);
        assert!((x as i32 - 92).abs() <= STRIDE + 2, "x = {x}");
        assert!((y as i32 - 70).abs() <= STRIDE + 2, "y = {y}");
    }

    #[test]
    fn native_tracks_plate_position() {
        for (px, py) in [(20, 16), (60, 40), (100, 90)] {
            let img = synth_scene(160, 120, px, py);
            let (x, y) = detect_native(&img);
            assert!(
                (x as i32 - px as i32).abs() <= STRIDE + 2,
                "{px},{py} → {x},{y}"
            );
            assert!(
                (y as i32 - py as i32).abs() <= STRIDE + 2,
                "{px},{py} → {x},{y}"
            );
        }
    }

    #[test]
    fn guest_matches_native() {
        let m = module();
        let img = synth_scene(96, 64, 30, 24);
        let got = run_guest(&m, &img);
        assert_eq!(got, native(&img));
    }

    #[test]
    fn all_configs_agree_small() {
        let m = module();
        let img = synth_scene(80, 60, 20, 20);
        let out = run_guest_every_way(&m, &img);
        assert_eq!(out, native(&img));
    }
}
