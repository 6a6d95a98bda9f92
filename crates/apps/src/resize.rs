//! RESIZE: half-scale an RGB image with a 2x2 box filter — the reproduction
//! of the paper's SOD resize workload (read image, resize by half, write
//! result).
//!
//! Request layout: `u32 width | u32 height | RGB24 pixels` (interleaved).
//! Response layout: same header with halved dimensions, then RGB24 pixels.

use crate::abi::{import_env, read_request, write_response};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;

const RX: i32 = 65536; // request buffer (input image)
const OUT: i32 = 655360; // response buffer

/// Build the resize guest module.
pub fn module() -> Module {
    let mut mb = ModuleBuilder::new("resize");
    mb.memory(16, Some(32));
    let env = import_env(&mut mb);

    use ValType::I32;
    let mut f = FuncBuilder::new(&[], Some(I32));
    let len = f.local(I32);
    let w = f.local(I32);
    let h = f.local(I32);
    let hw = f.local(I32);
    let hh = f.local(I32);
    let y = f.local(I32);
    let x = f.local(I32);
    let c = f.local(I32);
    let acc = f.local(I32);
    let sy = f.local(I32);
    let sx = f.local(I32);

    // src pixel byte address: RX + 8 + ((yy*w)+xx)*3 + c
    let src_at = |yy: Expr, xx: Expr, wl: sledge_guestc::Local, cl: sledge_guestc::Local| {
        load(
            Scalar::U8,
            add(
                i32c(RX + 8),
                add(mul(add(mul(yy, local(wl)), xx), i32c(3)), local(cl)),
            ),
            0,
        )
    };

    let mut body = read_request(&env, RX, len);
    body.extend([
        set(w, load(Scalar::I32, i32c(RX), 0)),
        set(h, load(Scalar::I32, i32c(RX), 4)),
        set(hw, div(local(w), i32c(2))),
        set(hh, div(local(h), i32c(2))),
        store(Scalar::I32, i32c(OUT), 0, local(hw)),
        store(Scalar::I32, i32c(OUT), 4, local(hh)),
        for_loop(
            y,
            i32c(0),
            lt_s(local(y), local(hh)),
            1,
            vec![for_loop(
                x,
                i32c(0),
                lt_s(local(x), local(hw)),
                1,
                vec![for_loop(
                    c,
                    i32c(0),
                    lt_s(local(c), i32c(3)),
                    1,
                    vec![
                        set(sy, mul(local(y), i32c(2))),
                        set(sx, mul(local(x), i32c(2))),
                        set(
                            acc,
                            add(
                                add(
                                    src_at(local(sy), local(sx), w, c),
                                    src_at(local(sy), add(local(sx), i32c(1)), w, c),
                                ),
                                add(
                                    src_at(add(local(sy), i32c(1)), local(sx), w, c),
                                    src_at(add(local(sy), i32c(1)), add(local(sx), i32c(1)), w, c),
                                ),
                            ),
                        ),
                        store(
                            Scalar::U8,
                            add(
                                i32c(OUT + 8),
                                add(
                                    mul(add(mul(local(y), local(hw)), local(x)), i32c(3)),
                                    local(c),
                                ),
                            ),
                            0,
                            shr_u(add(local(acc), i32c(2)), i32c(2)),
                        ),
                    ],
                )],
            )],
        ),
        write_response(
            &env,
            i32c(OUT),
            add(i32c(8), mul(mul(local(hw), local(hh)), i32c(3))),
        ),
        ret(Some(i32c(0))),
    ]);
    f.extend(body);
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("resize module")
}

use sledge_guestc::Expr;

// ------------------------------------------------------------------ native

/// Native reference implementation: identical box filter and rounding.
pub fn native(body: &[u8]) -> Vec<u8> {
    if body.len() < 8 {
        return Vec::new();
    }
    let w = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
    let h = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes")) as usize;
    let px = &body[8..];
    let (hw, hh) = (w / 2, h / 2);
    let at =
        |y: usize, x: usize, c: usize| px.get((y * w + x) * 3 + c).copied().unwrap_or(0) as u32;
    let mut out = Vec::with_capacity(8 + hw * hh * 3);
    out.extend_from_slice(&(hw as u32).to_le_bytes());
    out.extend_from_slice(&(hh as u32).to_le_bytes());
    for y in 0..hh {
        for x in 0..hw {
            for c in 0..3 {
                let acc = at(2 * y, 2 * x, c)
                    + at(2 * y, 2 * x + 1, c)
                    + at(2 * y + 1, 2 * x, c)
                    + at(2 * y + 1, 2 * x + 1, c);
                out.push(((acc + 2) >> 2) as u8);
            }
        }
    }
    out
}

/// Deterministic synthetic photo of `w` x `h` pixels (a flower-ish radial
/// gradient, standing in for the paper's 28.9 KB flower JPEG).
pub fn synth_image(w: usize, h: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + w * h * 3);
    out.extend_from_slice(&(w as u32).to_le_bytes());
    out.extend_from_slice(&(h as u32).to_le_bytes());
    let (cx, cy) = (w as i32 / 2, h as i32 / 2);
    for y in 0..h as i32 {
        for x in 0..w as i32 {
            let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
            let petal = (x * 7 + y * 13) % 47;
            out.push((200 - (d2 / 37).min(180) + petal / 4).clamp(0, 255) as u8);
            out.push((60 + petal * 3).clamp(0, 255) as u8);
            out.push((120 + (d2 / 53) % 90).clamp(0, 255) as u8);
        }
    }
    out
}

/// A representative input: 432x320 RGB — sized so the decoded working set
/// matches the computational weight class of the paper's RESIZE workload
/// (heavier than CIFAR10, lighter than LPD).
pub fn sample_input() -> Vec<u8> {
    synth_image(432, 320)
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
        // Output header has halved dimensions.
        assert_eq!(u32::from_le_bytes(got[0..4].try_into().unwrap()), 216);
        assert_eq!(u32::from_le_bytes(got[4..8].try_into().unwrap()), 160);
    }

    #[test]
    fn all_configs_agree_small() {
        let m = module();
        let img = synth_image(32, 24);
        let out = run_guest_every_way(&m, &img);
        assert_eq!(out, native(&img));
    }

    #[test]
    fn box_filter_averages() {
        // A uniform image stays uniform.
        let mut img = Vec::new();
        img.extend_from_slice(&4u32.to_le_bytes());
        img.extend_from_slice(&4u32.to_le_bytes());
        img.extend(std::iter::repeat_n(100u8, 4 * 4 * 3));
        let out = native(&img);
        assert!(out[8..].iter().all(|&b| b == 100));
    }
}
