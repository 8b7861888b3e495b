//! The RPC binder: how a client finds a server and learns the name of
//! the region it will import.
//!
//! Both of the paper's RPC systems bind the same way — VRPC in its
//! portmapper step (§4.2), SHRIMP RPC through its binder (§5): the
//! client exports its region, sends the name to the server's listener
//! queue out of band (the prototype used its service network), and the
//! server answers with its own region's name. Each side then imports the
//! other's region. [`Binder`] carries the exchange; exporting, importing
//! and how long to wait for the answer stay with the caller.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_mesh::NodeId;
use shrimp_sim::{Ctx, SimChannel, SimDur};

use crate::daemon::BufferName;
use crate::endpoint::Vmmc;

/// A client's bind request, queued for the server listening on its key.
#[derive(Debug)]
pub struct BindRequest<X> {
    /// The client's node.
    pub client_node: NodeId,
    /// The region the client exported for the server to import.
    pub client_region: BufferName,
    /// What else the library's binding carries (VRPC: the stream
    /// variant).
    pub extra: X,
    /// Where the server sends its own node and exported region's name.
    pub reply: SimChannel<(NodeId, BufferName)>,
}

/// The per-system binder: one listener queue per service key.
#[derive(Debug)]
pub struct Binder<K, X> {
    queues: Mutex<HashMap<K, SimChannel<BindRequest<X>>>>,
}

impl<K: Eq + Hash, X: Send + 'static> Binder<K, X> {
    /// An empty binder. Share one per simulated system.
    pub fn new() -> Arc<Binder<K, X>> {
        Arc::new(Binder {
            queues: Mutex::default(),
        })
    }

    /// The listener queue for `key`. A request made before any server
    /// listened waits in it, as under a retry-until-bound portmapper.
    pub fn listen(&self, key: K) -> SimChannel<BindRequest<X>> {
        self.queues.lock().entry(key).or_default().clone()
    }

    /// Queue a request for the server on `key`, naming `region` as the
    /// client's, then charge the out-of-band exchange. Returns the
    /// channel the server answers on; how long to wait is the caller's.
    pub fn request(
        &self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        key: K,
        region: BufferName,
        extra: X,
    ) -> SimChannel<(NodeId, BufferName)> {
        let reply = SimChannel::new();
        self.listen(key).send(
            &ctx.handle(),
            BindRequest {
                client_node: vmmc.node_id(),
                client_region: region,
                extra,
                reply: reply.clone(),
            },
        );
        ctx.advance(SimDur::from_us(400.0));
        reply
    }
}

#[cfg(test)]
mod tests {
    use shrimp_sim::Kernel;

    use super::*;
    use crate::{ShrimpSystem, SystemConfig};

    /// Two keys get two queues, a request made before the server
    /// listens is the one `listen` hands it, and each request costs the
    /// 400 µs exchange.
    #[test]
    fn requests_wait_in_their_keys_queue() {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let binder = Binder::<u32, &'static str>::new();
        let client = system.endpoint(1, "client");
        let b = Arc::clone(&binder);
        kernel.spawn("client", move |ctx| {
            for (key, region, extra) in [(7, 70, "seven"), (8, 80, "eight")] {
                let t0 = ctx.now();
                b.request(&client, ctx, key, BufferName(region), extra);
                assert_eq!(ctx.now().since(t0), SimDur::from_us(400.0));
            }
        });
        kernel.run_until_quiescent().unwrap();
        for (key, region, extra) in [(8, 80, "eight"), (7, 70, "seven")] {
            let queue = binder.listen(key);
            let req = queue.try_recv().unwrap();
            assert_eq!(
                (req.client_node, req.client_region, req.extra),
                (NodeId(1), BufferName(region), extra)
            );
            assert!(queue.is_empty());
        }
    }
}
