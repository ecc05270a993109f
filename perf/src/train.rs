//! The train phase: one fresh `Runtime` call per block, over the
//! workload's own wiring.

use fml_core::SourceTask;
use fml_models::Model;
use fml_runtime::{
    Runtime, RuntimeOutput, SharedGlobal, TcpTransport, TcpTransportListener, TransportListener,
};

use crate::workloads::{Bench, Link};

/// Runs a `rounds`-round schedule over `tasks` once from `θ0` over the
/// workload's own wiring and returns what the runtime returned.
pub fn run_schedule(
    b: &Bench,
    model: &dyn Model,
    tasks: &[SourceTask],
    rounds: usize,
    publisher: Option<&SharedGlobal>,
) -> RuntimeOutput {
    let trainer = b.spec.trainer(rounds);
    let mut runtime = Runtime::new(b.spec.runtime_config(b.seed));
    if let Some(shared) = publisher {
        runtime = runtime.with_publisher(shared.clone());
    }
    match b.spec.link {
        Link::Channel => runtime.run(&trainer, model, tasks, &b.theta0),
        Link::Tcp => {
            let listener = TcpTransportListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr();
            std::thread::scope(|s| {
                for node in 0..tasks.len() {
                    let (runtime, trainer, addr) = (&runtime, &trainer, addr.as_str());
                    s.spawn(move || {
                        let mut link = TcpTransport::connect(addr).expect("connect loopback");
                        runtime.run_node(trainer, model, tasks, node, &mut link)
                    });
                }
                runtime
                    .serve(&trainer, model, tasks, &b.theta0, Box::new(listener))
                    .expect("fleet joined")
            })
        }
    }
}
