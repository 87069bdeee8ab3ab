//! Concurrency patterns the lint must accept: one guard at a time,
//! guards dropped or scoped out before blocking calls and before the
//! next lock, and temporaries that die at their statement.

pub struct Pair {
    alpha: Mutex<State>,
    beta: Mutex<State>,
    tx: Sender<u64>,
}

impl Pair {
    pub fn sequential(&self) {
        let a = self.alpha.lock();
        let snapshot = a.clone();
        drop(a);
        self.beta.lock().merge(&snapshot);
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
