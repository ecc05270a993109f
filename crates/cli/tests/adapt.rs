//! The adaptation service through the `fedml` binary: one seeded
//! federation trained by `fedml runtime` into a checkpoint, each of its
//! two held-out targets adapted offline from that checkpoint, and the
//! same checkpoint served by `fedml adapt-serve` over TCP to four
//! concurrent `fedml adapt` clients. Every served parameter hash must
//! equal its offline twin, and the serving report must show every
//! request answered. Every wait is bounded, so a hang fails the test
//! instead of stalling it.

pub mod common;

use common::{float, listening_addr, read, runtime, text, uint, Running, TempDir};

#[test]
fn served_adaptation_matches_offline_for_concurrent_tcp_clients() {
    let dir = TempDir::new("adapt");
    let ckpt = dir.0.join("ckpt");
    // 8 nodes at source_frac 0.75: 6 source nodes, 2 held-out targets.
    runtime(
        &dir.0,
        "train",
        &["--checkpoint-dir", ckpt.to_str().unwrap()],
    );
    assert!(
        ckpt.join("latest.json").is_file(),
        "training left no checkpoint"
    );

    // The oracle: each target adapted offline, straight from the
    // checkpoint.
    let offline: Vec<String> = (0..2)
        .map(|t| {
            let name = format!("offline{t}");
            let args = format!(
                "adapt cfg.json --offline --checkpoint-dir ckpt --target {t} --json {name}.json"
            );
            Running::spawn(&dir.0, &name, &args).finish();
            text(&read(&dir.0.join(format!("{name}.json"))), &["param_hash"]).to_owned()
        })
        .collect();

    // The service: 4 clients × (probe + adapt) = 8 requests, after which
    // it drains and exits on its own.
    let mut server = Running::spawn(
        &dir.0,
        "serve",
        "adapt-serve cfg.json --listen 127.0.0.1:0 --checkpoint-dir ckpt \
         --workers 2 --max-requests 8 --json serve.json",
    );
    let addr = listening_addr(&mut server, "adapt service listening on ");

    // Four concurrent clients, two per target.
    let clients: Vec<Running> = (0..4)
        .map(|i| {
            let args = format!(
                "adapt cfg.json --connect {addr} --target {} --json client{i}.json",
                i % 2
            );
            Running::spawn(&dir.0, &format!("client{i}"), &args)
        })
        .collect();
    server.finish();
    for client in clients {
        client.finish();
    }

    // Served adaptation is bitwise the offline oracle.
    for (i, want) in (0..4).map(|i| (i, &offline[i % 2])) {
        let served = read(&dir.0.join(format!("client{i}.json")));
        assert_eq!(text(&served, &["param_hash"]), want, "client {i}");
    }
    assert!(
        offline
            .iter()
            .all(|h| h.len() == 16 && h.chars().all(|c| c.is_ascii_hexdigit())),
        "offline hashes {offline:?} are not 16 hex digits"
    );

    // The service answered everything: no sheds, no rejects.
    let serve = read(&dir.0.join("serve.json"));
    assert_eq!(uint(&serve, &["responses"]), 8);
    for counter in [
        "shed_busy",
        "rejected_unavailable",
        "rejected_bad",
        "decode_errors",
        "dropped_replies",
    ] {
        assert_eq!(uint(&serve, &[counter]), 0, "{counter}");
    }
    assert!(float(&serve, &["qps"]) > 0.0);
}
