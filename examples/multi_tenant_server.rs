//! Multi-tenant HTTP edge node: serves every application of the paper's
//! evaluation over HTTP from a single process (the deployment of Figure 4),
//! then exercises it with a few client requests.
//!
//! Run with: `cargo run --release --example multi_tenant_server`
//! (add `--stay-up` to leave the server running for manual curl testing).

use sledge::runtime::{FunctionConfig, Runtime};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn http_post(addr: std::net::SocketAddr, path: &str, body: &[u8]) -> (String, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: edge\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).expect("write head");
    s.write_all(body).expect("write body");
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).expect("read");
    let split = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response");
    let head = String::from_utf8_lossy(&resp[..split]).to_string();
    let body = resp[split + 4..].to_vec();
    (head, body)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's config is a JSON file; same here.
    let (config, functions) = sledge::runtime::RuntimeConfig::from_json(
        r#"{
            "workers": 4,
            "quantum_us": 5000,
            "max_pending": 4096,
            "modules": [
                {"name": "ping"}, {"name": "echo"}, {"name": "gps_ekf"},
                {"name": "gocr"}, {"name": "cifar10"}, {"name": "resize"},
                {"name": "lpd"}
            ]
        }"#,
    )?;
    let rt = Runtime::with_http(config, "127.0.0.1:0".parse()?)?;
    let addr = rt.http_addr().expect("http enabled");

    // Register each configured module with its guest binary.
    let apps = sledge::apps::all_apps();
    for fc in functions {
        let app = apps
            .iter()
            .find(|a| a.name == fc.name)
            .unwrap_or_else(|| panic!("no app named {}", fc.name));
        let config = FunctionConfig::new(fc.name.clone());
        rt.register_module(config, &(app.module)())?;
    }
    println!("multi-tenant edge node listening on http://{addr}");
    for app in &apps {
        println!("  POST /{}", app.name);
    }

    if std::env::args().any(|a| a == "--stay-up") {
        println!("\n--stay-up: serving until killed (try curl).");
        loop {
            std::thread::sleep(Duration::from_secs(60));
        }
    }

    // Exercise three tenants over real HTTP.
    let (head, body) = http_post(addr, "/ping", b"");
    println!(
        "\n/ping      -> {}  body {:?}",
        head.lines().next().unwrap(),
        body
    );
    assert!(head.starts_with("HTTP/1.1 200"));

    let (head, body) = http_post(addr, "/echo", b"edge payload");
    println!(
        "/echo      -> {}  body {:?}",
        head.lines().next().unwrap(),
        String::from_utf8_lossy(&body)
    );
    assert_eq!(body, b"edge payload");

    let input = sledge::apps::cifar10::sample_input();
    let (head, body) = http_post(addr, "/cifar10", &input);
    println!(
        "/cifar10   -> {}  class {:?}",
        head.lines().next().unwrap(),
        String::from_utf8_lossy(&body)
    );
    assert_eq!(body, sledge::apps::cifar10::native(&input));

    let (head, _) = http_post(addr, "/missing", b"");
    println!("/missing   -> {}", head.lines().next().unwrap());
    assert!(head.starts_with("HTTP/1.1 404"));

    let stats = rt.latency_report().stats;
    println!(
        "\nstats: {} admitted, {} completed, {} rejected",
        stats.admitted, stats.completed, stats.rejected
    );
    rt.shutdown();
    Ok(())
}
