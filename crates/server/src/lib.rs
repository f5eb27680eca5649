//! Pipelined multi-client serving layer for AtomFS.
//!
//! The paper's AtomFS is mounted through FUSE; this crate stands the
//! equivalent serving boundary up over TCP so many client processes can
//! drive one file system instance and latency can be measured where a
//! client actually observes it. The pieces:
//!
//! * [`wire`] — framed binary RPC protocol (wire v2): tagged,
//!   checksummed frames with every length clamped before allocation,
//!   built on the workspace's one framed codec, `atomfs_vfs::frame`.
//! * [`server`] — accept loop and one thread per connection that reads,
//!   executes and answers its own requests: per-connection FD tables on
//!   `vfs`, TCP flow control as backpressure, replies batched into one
//!   `write` before any read that may block, two buffers owned by each
//!   connection thread and reused for every request, `read` replies
//!   filled in place (zero-allocation steady state), and a `/metrics`
//!   + `/spans` HTTP scrape path on the same listener.
//! * [`client`] — pipelined [`client::RpcClient`], whose callers read
//!   their own replies (no client thread), and the
//!   [`client::RemoteFs`] adapter that makes a remote server look like
//!   any other [`FileSystem`](atomfs_vfs::FileSystem).
//! * [`check`] — the always-on [`check::CheckerPump`]: a thread that
//!   follows the served file system's trace sink with a streaming
//!   CRL-H checker and serves the live verdict at `/check`.
//!
//! Because the server is generic over `FileSystem`, serving a traced
//! AtomFS (`AtomFs::traced(ShardedSink)`) yields a complete operation
//! trace the CRL-H checker validates end to end — including the closes
//! forced by disconnect teardown.

#![warn(missing_docs)]

pub mod check;
pub mod client;
pub mod server;
pub mod wire;

pub use check::{CheckerPump, PumpConfig};
pub use client::{Pending, RemoteFs, RpcClient};
pub use server::{serve, serve_checked, serve_on, Server, ServerConfig, StatsSnapshot};
pub use wire::{
    Request, Response, FLAG_APPEND, FLAG_CREATE, FLAG_READ, FLAG_TRUNC, FLAG_WRITE, MAX_IO_LEN,
};
