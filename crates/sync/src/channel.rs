//! Crossbeam channels under the leaf rule: the operations that can wait
//! (`send`, `recv`, `recv_timeout`) call [`may_block`] first; the ones
//! that cannot (`try_send`, `try_recv`, `len`) do not.

use std::fmt;
use std::time::Duration;

use crossbeam::channel::{RecvError, RecvTimeoutError, SendError};
pub use crossbeam::channel::{TryRecvError, TrySendError};

use crate::may_block;

/// The sending side of a channel.
pub struct Sender<T>(crossbeam::channel::Sender<T>);

/// The receiving side of a channel; cloneable (MPMC).
pub struct Receiver<T>(crossbeam::channel::Receiver<T>);

/// A channel holding at most `capacity` messages.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = crossbeam::channel::bounded(capacity);
    (Sender(tx), Receiver(rx))
}

/// A channel with no capacity limit.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    #[expect(clippy::disallowed_methods, reason = "forwards to crossbeam")]
    let (tx, rx) = crossbeam::channel::unbounded();
    (Sender(tx), Receiver(rx))
}

impl<T> Sender<T> {
    /// Sends `value`, waiting while the channel is full.
    #[track_caller]
    #[inline]
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        may_block();
        self.0.send(value)
    }

    /// Sends `value` if there is room, without waiting.
    #[inline]
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.0.try_send(value)
    }

    /// Messages in the channel.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the channel holds no message.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<T> Receiver<T> {
    /// Receives a message, waiting while the channel is empty.
    #[track_caller]
    #[inline]
    pub fn recv(&self) -> Result<T, RecvError> {
        may_block();
        self.0.recv()
    }

    /// Receives a message, waiting at most `timeout`.
    #[track_caller]
    #[inline]
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        may_block();
        self.0.recv_timeout(timeout)
    }

    /// Receives a message if one is ready, without waiting.
    #[inline]
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.0.try_recv()
    }

    /// Messages in the channel.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the channel holds no message.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender(self.0.clone())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver(self.0.clone())
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}
