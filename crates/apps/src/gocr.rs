//! GOCR: optical character recognition over a binary bitmap, the
//! reproduction of the paper's GOCR workload.
//!
//! The guest receives a P4-style packed binary bitmap laid out as rows of
//! fixed-size glyph cells (8x12 pixels per character), and recognizes each
//! cell by minimum-Hamming-distance matching against a built-in 8x12 font of
//! the characters `0-9A-Z` and space. The recognized ASCII text is the
//! response.
//!
//! Request layout: `u32 cols | u32 rows | packed bits` where the bitmap is
//! `cols*8` pixels wide and `rows*12` tall, one bit per pixel, MSB-first,
//! each pixel row padded to a byte boundary.

use crate::abi::{import_env, read_request, write_response};
use sledge_guestc::dsl::*;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;

/// Glyph cell width in pixels (one packed byte).
pub const CELL_W: usize = 8;
/// Glyph cell height in pixels.
pub const CELL_H: usize = 12;
/// Number of font glyphs.
pub const GLYPHS: usize = 37;

/// The glyph alphabet, index-aligned with the font table.
pub const ALPHABET: &[u8; GLYPHS] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ ";

/// A deterministic, procedurally generated 8x12 font: each glyph is 12
/// bytes (one byte per pixel row). The font is arbitrary but fixed — both
/// the generator and the recognizer use it, which is what the workload
/// needs (the paper's GOCR similarly ships its own glyph knowledge).
pub fn font() -> [[u8; CELL_H]; GLYPHS] {
    let mut font = [[0u8; CELL_H]; GLYPHS];
    let mut state = 0x5EED_5EEDu32;
    let mut next = move || {
        // xorshift32
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    for (g, glyph) in font.iter_mut().enumerate() {
        if g == GLYPHS - 1 {
            continue; // space: all zeros
        }
        for row in glyph.iter_mut() {
            *row = (next() & 0xFF) as u8;
        }
        // Give every non-space glyph a solid anchor row so glyphs are
        // visually dense and mutually distant.
        glyph[0] = 0xFF;
        glyph[CELL_H - 1] = (g as u8).wrapping_mul(7) | 0x81;
    }
    font
}

const RX: i32 = 8192; // request bitmap
const OUT: i32 = 4096; // recognized text
const FONT: i32 = 64; // font data segment

/// Build the OCR guest module.
pub fn module() -> Module {
    let mut mb = ModuleBuilder::new("gocr");
    mb.memory(4, Some(16));
    let env = import_env(&mut mb);

    // Bake the font into a data segment.
    let f = font();
    let mut bytes = Vec::with_capacity(GLYPHS * CELL_H);
    for glyph in &f {
        bytes.extend_from_slice(glyph);
    }
    mb.data(FONT as u32, bytes);

    use ValType::I32;
    let mut fb = FuncBuilder::new(&[], Some(I32));
    let len = fb.local(I32);
    let cols = fb.local(I32);
    let rows = fb.local(I32);
    let cy = fb.local(I32); // cell row
    let cx = fb.local(I32); // cell col
    let g = fb.local(I32); // glyph index
    let r = fb.local(I32); // pixel row within cell
    let best = fb.local(I32);
    let best_g = fb.local(I32);
    let dist = fb.local(I32);
    let cell_byte = fb.local(I32);
    let out_pos = fb.local(I32);

    let mut body = read_request(&env, RX, len);
    body.extend([
        set(cols, load(Scalar::I32, i32c(RX), 0)),
        set(rows, load(Scalar::I32, i32c(RX), 4)),
        set(out_pos, i32c(0)),
        // For each glyph cell...
        for_loop(
            cy,
            i32c(0),
            lt_s(local(cy), local(rows)),
            1,
            vec![
                for_loop(
                    cx,
                    i32c(0),
                    lt_s(local(cx), local(cols)),
                    1,
                    vec![
                        set(best, i32c(1 << 20)),
                        set(best_g, i32c(GLYPHS as i32 - 1)),
                        for_loop(
                            g,
                            i32c(0),
                            lt_s(local(g), i32c(GLYPHS as i32)),
                            1,
                            vec![
                                set(dist, i32c(0)),
                                for_loop(
                                    r,
                                    i32c(0),
                                    lt_s(local(r), i32c(CELL_H as i32)),
                                    1,
                                    vec![
                                        // The bitmap byte for (cell cy, pixel row r, cell cx):
                                        // offset = 8 + (cy*CELL_H + r)*cols + cx.
                                        set(
                                            cell_byte,
                                            load(
                                                Scalar::U8,
                                                add(
                                                    i32c(RX + 8),
                                                    add(
                                                        mul(
                                                            add(
                                                                mul(local(cy), i32c(CELL_H as i32)),
                                                                local(r),
                                                            ),
                                                            local(cols),
                                                        ),
                                                        local(cx),
                                                    ),
                                                ),
                                                0,
                                            ),
                                        ),
                                        set(
                                            dist,
                                            add(
                                                local(dist),
                                                Expr::Un(
                                                    sledge_guestc::UnOp::Popcnt,
                                                    Box::new(xor(
                                                        local(cell_byte),
                                                        load(
                                                            Scalar::U8,
                                                            add(
                                                                i32c(FONT),
                                                                add(
                                                                    mul(
                                                                        local(g),
                                                                        i32c(CELL_H as i32),
                                                                    ),
                                                                    local(r),
                                                                ),
                                                            ),
                                                            0,
                                                        ),
                                                    )),
                                                ),
                                            ),
                                        ),
                                    ],
                                ),
                                if_(
                                    lt_s(local(dist), local(best)),
                                    vec![set(best, local(dist)), set(best_g, local(g))],
                                ),
                            ],
                        ),
                        // Emit the alphabet character for best_g. The alphabet is
                        // '0'..'9','A'..'Z',' ' — compute it arithmetically.
                        store(
                            Scalar::U8,
                            add(i32c(OUT), local(out_pos)),
                            0,
                            select(
                                lt_s(local(best_g), i32c(10)),
                                add(local(best_g), i32c('0' as i32)),
                                select(
                                    lt_s(local(best_g), i32c(36)),
                                    add(local(best_g), i32c('A' as i32 - 10)),
                                    i32c(' ' as i32),
                                ),
                            ),
                        ),
                        set(out_pos, add(local(out_pos), i32c(1))),
                    ],
                ),
                // Newline after each cell row.
                store(
                    Scalar::U8,
                    add(i32c(OUT), local(out_pos)),
                    0,
                    i32c('\n' as i32),
                ),
                set(out_pos, add(local(out_pos), i32c(1))),
            ],
        ),
        write_response(&env, i32c(OUT), local(out_pos)),
        ret(Some(i32c(0))),
    ]);
    fb.extend(body);
    let main = mb.add_func("main", fb);
    mb.export_func(main, "main");
    mb.build().expect("gocr module")
}

use sledge_guestc::Expr;

// ------------------------------------------------------------------ native

/// Native reference recognizer; same algorithm as the guest.
pub fn native(body: &[u8]) -> Vec<u8> {
    if body.len() < 8 {
        return Vec::new();
    }
    let cols = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
    let rows = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes")) as usize;
    let bitmap = &body[8..];
    let f = font();
    let mut out = Vec::new();
    for cy in 0..rows {
        for cx in 0..cols {
            let mut best = 1 << 20;
            let mut best_g = GLYPHS - 1;
            for (g, glyph) in f.iter().enumerate() {
                let mut dist = 0u32;
                for (r, font_byte) in glyph.iter().enumerate() {
                    let idx = (cy * CELL_H + r) * cols + cx;
                    let cell = bitmap.get(idx).copied().unwrap_or(0);
                    dist += (cell ^ font_byte).count_ones();
                }
                if (dist as i32) < best {
                    best = dist as i32;
                    best_g = g;
                }
            }
            out.push(ALPHABET[best_g]);
        }
        out.push(b'\n');
    }
    out
}

/// Render `text` (uppercase alphanumerics and spaces, lines of equal
/// length) into a request bitmap, optionally flipping `noise_bits`
/// deterministic pixels to exercise the error-correcting match.
pub fn render(lines: &[&str], noise_bits: usize) -> Vec<u8> {
    let cols = lines.iter().map(|l| l.len()).max().unwrap_or(0);
    let rows = lines.len();
    let f = font();
    let mut bitmap = vec![0u8; rows * CELL_H * cols];
    for (cy, line) in lines.iter().enumerate() {
        for (cx, ch) in line.bytes().enumerate() {
            let g = ALPHABET
                .iter()
                .position(|&a| a == ch.to_ascii_uppercase())
                .unwrap_or(GLYPHS - 1);
            for r in 0..CELL_H {
                bitmap[(cy * CELL_H + r) * cols + cx] = f[g][r];
            }
        }
    }
    // Deterministic noise.
    let mut state = 0xBADC_AB1Eu32;
    for _ in 0..noise_bits {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        let idx = (state as usize) % (bitmap.len() * 8);
        bitmap[idx / 8] ^= 1 << (idx % 8);
    }
    let mut req = Vec::with_capacity(8 + bitmap.len());
    req.extend_from_slice(&(cols as u32).to_le_bytes());
    req.extend_from_slice(&(rows as u32).to_le_bytes());
    req.extend_from_slice(&bitmap);
    req
}

/// A representative request: three lines of text with light noise.
pub fn sample_input() -> Vec<u8> {
    render(
        &[
            "SLEDGE SERVERLESS RUNTIME 2020",
            "EDGE FUNCTIONS AT MICROSECONDS",
            "WASM SANDBOXES FOR EVERYONE 42",
        ],
        64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_guest, run_guest_every_way};

    #[test]
    fn recognizes_clean_text() {
        let req = render(&["HELLO 42"], 0);
        assert_eq!(native(&req), b"HELLO 42\n".to_vec());
    }

    #[test]
    fn recognizes_noisy_text() {
        // A few flipped bits must not change the result.
        let req = render(&["NOISY TEXT 99"], 20);
        assert_eq!(native(&req), b"NOISY TEXT 99\n".to_vec());
    }

    #[test]
    fn guest_matches_native() {
        let m = module();
        let req = sample_input();
        let got = run_guest(&m, &req);
        assert_eq!(got, native(&req));
        assert!(String::from_utf8(got).unwrap().contains("SLEDGE"));
    }

    #[test]
    fn all_configs_agree() {
        let m = module();
        let req = render(&["ABC 123"], 8);
        let out = run_guest_every_way(&m, &req);
        assert_eq!(out, native(&req));
    }

    #[test]
    fn empty_request_is_graceful() {
        assert!(native(b"").is_empty());
    }
}
