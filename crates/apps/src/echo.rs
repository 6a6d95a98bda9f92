//! The network-transfer function of Figure 7: receive a payload, copy it
//! through an intermediate buffer (the paper's function copies to a buffer
//! and writes it back out), and return it as the response.

use crate::abi::{import_env, write_response};
use sledge_guestc::dsl::*;
use sledge_guestc::Expr;
use sledge_guestc::{FuncBuilder, ModuleBuilder, Scalar};
use sledge_wasm::module::Module;
use sledge_wasm::types::ValType;

/// Offset of the receive buffer in guest memory (start of page 1).
const RX: i32 = 65536;

/// Build the echo/transfer guest. The module starts with two pages and
/// grows its linear memory to fit the payload (paper sweep: 1 KB – 1 MB) —
/// the way a real Wasm guest's allocator behaves, and what keeps small
/// requests on the cheap instantiation path.
pub fn module() -> Module {
    let mut mb = ModuleBuilder::new("echo");
    mb.memory(2, Some(128));
    let env = import_env(&mut mb);
    let req_len = env.request_len.expect("echo reads the request");
    let req_read = env.request_read.expect("echo reads the request");
    let mut f = FuncBuilder::new(&[], Some(ValType::I32));
    let n = f.local(ValType::I32);
    let i = f.local(ValType::I32);
    let copy = f.local(ValType::I32); // start of the copy buffer
    let need = f.local(ValType::I32); // pages required
    let mut body = vec![
        set(n, call(req_len, vec![])),
        // copy = RX + round_up(n, 64 KiB); grow to fit copy + n.
        set(
            copy,
            add(i32c(RX), and(add(local(n), i32c(65535)), i32c(!65535))),
        ),
        // +8 pads the final word-granularity copy; round up to whole pages.
        set(
            need,
            shr_u(add(add(local(copy), local(n)), i32c(8 + 65535)), i32c(16)),
        ),
        if_(
            gt_s(local(need), Expr::MemorySize),
            vec![exec(Expr::MemoryGrow(Box::new(sub(
                local(need),
                Expr::MemorySize,
            ))))],
        ),
        exec(call(req_read, vec![i32c(RX), local(n), i32c(0)])),
        // Copy word-at-a-time into the intermediate buffer (the guest-side
        // data handling the paper's function performs).
        for_loop(
            i,
            i32c(0),
            lt_s(local(i), local(n)),
            8,
            vec![store(
                Scalar::I64,
                add(local(copy), local(i)),
                0,
                load(Scalar::I64, add(i32c(RX), local(i)), 0),
            )],
        ),
        write_response(&env, local(copy), local(n)),
        ret(Some(i32c(0))),
    ];
    f.extend(body.drain(..));
    let main = mb.add_func("main", f);
    mb.export_func(main, "main");
    mb.build().expect("echo module")
}

/// Native reference: copy through a buffer, return.
pub fn native(body: &[u8]) -> Vec<u8> {
    let mut buf = vec![0u8; body.len()];
    buf.copy_from_slice(body);
    buf
}

/// Deterministic payload of `len` bytes.
pub fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

/// A representative request body (10 KiB).
pub fn sample_input() -> Vec<u8> {
    payload(10 * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_guest, run_guest_every_way};

    #[test]
    fn guest_matches_native_across_sizes() {
        let m = module();
        for len in [0usize, 1, 7, 8, 1024, 65_537] {
            let body = payload(len);
            let out = run_guest(&m, &body);
            assert_eq!(out, native(&body), "len={len}");
        }
    }

    #[test]
    fn all_configs_agree_on_10k() {
        let m = module();
        let body = payload(10 * 1024);
        let out = run_guest_every_way(&m, &body);
        assert_eq!(out, native(&body));
    }
}
