// Known-bad corpus for the lock-order pass: a second guard taken while
// one is held, in one consistent order (still a finding: no thread holds
// two guards), as a same-handle re-entry, and as a projection chain.
// Never compiled — the analyzer reads it as text.

struct Pair {
    alpha: Shared<u32>,
    beta: Shared<u32>,
}

impl Pair {
    fn forward(&self) {
        let ga = self.alpha.borrow();
        let gb = self.beta.borrow_mut();
        let _ = (*ga, *gb);
    }

    fn also_forward(&self) {
        let ga = self.alpha.borrow_mut();
        let gb = self.beta.borrow();
        let _ = (*ga, *gb);
    }

    fn reenter(&self) {
        let g1 = self.alpha.borrow();
        let g2 = self.alpha.borrow();
        let _ = (*g1, *g2);
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.inner.borrow().fabric.borrow().params().retry
    }
}
