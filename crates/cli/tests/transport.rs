//! The socket transport through the `fedml` binary: one seeded
//! federation run by `fedml runtime` over channels in one process, then
//! again as one platform process and one process per source node over
//! TCP loopback — real processes, real sockets, nothing shared but the
//! config file. The TCP run must hash bitwise-identical to the channel
//! run. Every wait is bounded, so a hang fails the test instead of
//! stalling it.

pub mod common;

use common::{listening_addr, read, text, Running, TempDir};

/// 8 nodes at source_frac 0.75: 6 source nodes, one process each.
const NODES: usize = 6;

#[test]
fn node_processes_over_tcp_hash_like_the_channel_run() {
    let dir = TempDir::new("transport");
    // The oracle: the same federation in one process over channels.
    Running::spawn(&dir.0, "channel", "runtime cfg.json --json channel.json").finish();

    let mut platform = Running::spawn(
        &dir.0,
        "platform",
        "runtime cfg.json --transport tcp --listen 127.0.0.1:0 --json tcp.json",
    );
    let addr = listening_addr(&mut platform, "platform listening on ");
    let expected = format!("{addr} ({NODES} nodes expected)");
    assert!(platform.stderr().contains(&expected), "{}", platform.stderr());
    let nodes: Vec<Running> = (0..NODES)
        .map(|i| {
            let args = format!("runtime cfg.json --transport tcp --connect {addr} --node {i}");
            Running::spawn(&dir.0, &format!("node{i}"), &args)
        })
        .collect();
    platform.finish();
    for node in nodes {
        node.finish();
    }

    let hash = ["runtime", "param_hash"];
    let channel = read(&dir.0.join("channel.json"));
    let tcp = read(&dir.0.join("tcp.json"));
    let digits = text(&channel, &hash);
    assert!(
        digits.len() == 16 && digits.chars().all(|c| c.is_ascii_hexdigit()),
        "param_hash {digits} is not 16 hex digits"
    );
    assert_eq!(text(&tcp, &hash), digits, "tcp run differs from channel run");
    assert_eq!(text(&tcp, &["runtime", "transport"]), "tcp");
}
