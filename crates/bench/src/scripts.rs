//! Scriptable client services used by the micro-benchmarks.

use fractos_cap::Cid;
use fractos_core::prelude::*;
use fractos_sim::SimTime;

type StartFn = Box<dyn FnOnce(&mut Script, &Fos<Script>) + Send>;
type RequestFn = Box<dyn FnMut(&mut Script, IncomingRequest, &Fos<Script>) + Send>;

/// A service driven by a one-shot closure at start; collects results.
pub struct Script {
    /// Syscall results collected by the script's continuations.
    pub results: Vec<SyscallResult>,
    /// Capability indices collected by the script's continuations.
    pub cids: Vec<Cid>,
    /// Timestamps collected by the script's continuations.
    pub stamps: Vec<SimTime>,
    /// Requests delivered to this Process.
    pub received: Vec<IncomingRequest>,
    start: Option<StartFn>,
    on_req: Option<RequestFn>,
}

impl Script {
    /// A script that runs `f` once at start.
    pub fn new(f: impl FnOnce(&mut Script, &Fos<Script>) + Send + 'static) -> Self {
        Script {
            results: Vec::new(),
            cids: Vec::new(),
            stamps: Vec::new(),
            received: Vec::new(),
            start: Some(Box::new(f)),
            on_req: None,
        }
    }

    /// Adds a request handler (otherwise requests are just recorded).
    pub fn with_handler(
        mut self,
        h: impl FnMut(&mut Script, IncomingRequest, &Fos<Script>) + Send + 'static,
    ) -> Self {
        self.on_req = Some(Box::new(h));
        self
    }
}

impl Service for Script {
    fn on_start(&mut self, fos: &Fos<Self>) {
        if let Some(f) = self.start.take() {
            f(self, fos);
        }
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        // Detach the handler while it runs so it can borrow `self` freely.
        if let Some(mut h) = self.on_req.take() {
            h(self, req, fos);
            if self.on_req.is_none() {
                self.on_req = Some(h);
            }
        } else {
            self.received.push(req);
        }
    }
}

/// Mean of the microsecond gaps between consecutive stamps.
pub fn mean_gap_us(stamps: &[SimTime]) -> f64 {
    if stamps.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for w in stamps.windows(2) {
        total += w[1].duration_since(w[0]).as_micros_f64();
    }
    total / (stamps.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractos_core::types::Syscall;

    #[test]
    fn script_runs_and_collects() {
        let mut tb = Testbed::paper(1);
        let ctrl = tb.add_controller(fractos_core::CtrlPlacement::HostCpu(NodeId(0)));
        let p = tb.add_process(
            "s",
            cpu(0),
            ctrl,
            Script::new(|_s, fos| {
                fos.call(Syscall::Null, |s: &mut Script, res, fos| {
                    s.results.push(res);
                    s.stamps.push(fos.now());
                });
            }),
        );
        tb.start_process(p);
        tb.run();
        tb.with_service::<Script, _>(p, |s| {
            assert_eq!(s.results, vec![SyscallResult::Ok]);
            assert_eq!(s.stamps.len(), 1);
        });
    }

    #[test]
    fn mean_gap() {
        let stamps = vec![
            SimTime::from_nanos(0),
            SimTime::from_nanos(1_000),
            SimTime::from_nanos(3_000),
        ];
        assert!((mean_gap_us(&stamps) - 1.5).abs() < 1e-9);
        assert_eq!(mean_gap_us(&stamps[..1]), 0.0);
    }
}
