//! Deterministic in-process transport: one duplex byte pipe per client
//! session.
//!
//! CI must not open sockets, and the serving study must be byte-identical
//! across runs — so the default transport is a pair of plain in-memory
//! byte queues with *explicit* delivery: bytes move only when the daemon
//! event loop says so, at virtual times taken from the client script.
//! There is no hidden buffering, no OS scheduling, no partial-write
//! nondeterminism; chunk boundaries are whatever the test or study
//! chooses, which is exactly what the incremental [`crate::wire::Decoder`]
//! is exercised against.

/// A duplex in-process byte pipe between one client and the daemon.
///
/// Both directions are simple append/drain queues. The daemon drains the
/// client→server direction into its frame decoder; responses are framed
/// into the server→client direction and drained by the client (or test)
/// at its leisure.
#[derive(Debug, Default, Clone)]
pub struct Duplex {
    to_server: Vec<u8>,
    to_client: Vec<u8>,
}

impl Duplex {
    /// A fresh pipe with both directions empty.
    pub fn new() -> Self {
        Duplex::default()
    }

    /// Client side: sends bytes toward the server.
    pub fn client_send(&mut self, bytes: &[u8]) {
        self.to_server.extend_from_slice(bytes);
    }

    /// Server side: takes everything the client has sent so far.
    pub fn server_drain(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.to_server)
    }

    /// Server side: sends bytes toward the client.
    pub fn server_send(&mut self, bytes: &[u8]) {
        self.to_client.extend_from_slice(bytes);
    }

    /// Client side: takes everything the server has sent so far.
    pub fn client_drain(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.to_client)
    }

    /// Bytes currently queued toward the server.
    pub fn pending_to_server(&self) -> usize {
        self.to_server.len()
    }

    /// Bytes currently queued toward the client.
    pub fn pending_to_client(&self) -> usize {
        self.to_client.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_directions_carry_bytes_independently() {
        let mut d = Duplex::new();
        d.client_send(b"abc");
        d.server_send(b"xy");
        assert_eq!(d.pending_to_server(), 3);
        assert_eq!(d.pending_to_client(), 2);
        assert_eq!(d.server_drain(), b"abc");
        assert_eq!(d.server_drain(), b"");
        d.client_send(b"d");
        assert_eq!(d.server_drain(), b"d");
        assert_eq!(d.client_drain(), b"xy");
        assert_eq!(d.pending_to_client(), 0);
    }
}
