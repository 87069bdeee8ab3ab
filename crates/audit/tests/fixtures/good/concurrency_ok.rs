//! Concurrency patterns the lint must accept: a consistent alpha →
//! beta order in every function, guards dropped before blocking calls,
//! and temporaries that die at their statement.

pub struct Pair {
    alpha: Mutex<State>,
    beta: Mutex<State>,
    tx: Sender<u64>,
}

impl Pair {
    pub fn forward(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        b.merge(&a);
    }

    pub fn also_forward(&self) {
        let a = self.alpha.lock();
        a.tick();
        let b = self.beta.lock();
        b.merge(&a);
    }

    pub fn publish(&self, value: u64) {
        let mut a = self.alpha.lock();
        a.count += 1;
        drop(a);
        self.tx.send(value);
    }

    pub fn scoped_publish(&self, value: u64) {
        {
            let mut a = self.alpha.lock();
            a.count += 1;
        }
        self.tx.send(value);
    }

    pub fn counted_publish(&self, value: u64) {
        self.alpha.lock().count += 1;
        self.tx.send(value);
    }
}
