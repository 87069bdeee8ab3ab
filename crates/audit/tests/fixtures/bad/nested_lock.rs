//! Seeded nesting: `transfer` takes `beta` while holding `alpha`. No
//! other function takes the two in the opposite order, so there is no
//! lock-order cycle, but locks are leaves: the `nested-lock` rule must
//! flag the inner acquisition.

pub struct Pair {
    alpha: Mutex<State>,
    beta: Mutex<State>,
}

impl Pair {
    pub fn transfer(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        b.merge(&a);
    }
}
