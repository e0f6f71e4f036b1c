// Known-bad corpus for the lock-order pass: the second guard is taken
// only through a call (hold `gamma`, call a helper that acquires
// `delta`), so detecting it requires the inter-procedural summary
// fixpoint. Never compiled — the analyzer reads it as text.

struct Calls {
    gamma: Shared<u32>,
    delta: Shared<u32>,
}

impl Calls {
    fn helper_acquires_delta(&self) {
        let g = self.delta.borrow_mut();
        let _ = *g;
    }

    fn holds_gamma_across_call(&self) {
        let g = self.gamma.borrow();
        self.helper_acquires_delta();
        let _ = *g;
    }
}
