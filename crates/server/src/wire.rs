//! Framed binary RPC protocol, wire v2.
//!
//! Both directions use the same frame shape: self-describing,
//! checksummed, and every length/count field clamped before it can drive
//! an allocation. The byte layer — little-endian writers, the strict
//! reader, and the sealed `header | payload | checksum` envelope — is
//! [`atomfs_vfs::frame`], shared with the journal's log frames. This
//! module keeps what is the wire's own: the header fields, the two
//! magics, [`VERSION`], the checksum seed, the request and response
//! schemas, and the strictness rules below.
//!
//! ```text
//! frame := magic u32 | version u8 | code u8 | tag u64 | payload_len u32
//!          | payload | checksum u64
//! ```
//!
//! * `magic` differs per direction ([`REQ_MAGIC`] / [`RSP_MAGIC`]) so a
//!   desynchronized peer can never mistake one for the other.
//! * `code` is the opcode for requests and the response kind (or
//!   [`CODE_ERR`]) for responses.
//! * `tag` is chosen by the client and echoed verbatim; responses to
//!   pipelined requests complete in any order and are matched by tag.
//! * `checksum` covers every preceding byte of the frame. It is
//!   [`checksum`], the workspace's one word checksum
//!   ([`atomfs_vfs::checksum()`]) under the wire's own seed. Request
//!   frames are mostly shorter than one 64-byte block and take its
//!   one-lane path; `read`/`write` payloads run its eight lanes, so the
//!   sum of a 4 KiB frame is not one chain of 512 dependent multiplies.
//!   `version` names the checksum too: a peer that sums differently is
//!   refused by its header, not by a mismatch.
//!
//! Decoding is strict: unknown codes, non-UTF-8 paths, trailing payload
//! garbage, flag bits outside [`FLAG_MASK`], and any length or count a
//! forged header claims but the buffer cannot hold all return `None`.
//! A frame that fails to decode poisons the connection (framing cannot
//! be resynchronized), which the server answers by tearing the
//! connection down.

use atomfs_vfs::frame::{self, put_len_prefixed, put_u32, put_u64, Reader};
use atomfs_vfs::{FileType, FsError, Metadata};

/// Request-frame magic: `"AFRQ"` little-endian.
pub const REQ_MAGIC: u32 = u32::from_le_bytes(*b"AFRQ");
/// Response-frame magic: `"AFRS"` little-endian.
pub const RSP_MAGIC: u32 = u32::from_le_bytes(*b"AFRS");
/// Protocol version this module speaks: 2 since the 8-lane checksum
/// (version 1 frames carried the one-lane sum and are refused).
pub const VERSION: u8 = 2;
/// Fixed byte length of the frame header (through `payload_len`).
pub const HDR_LEN: usize = 4 + 1 + 1 + 8 + 4;
/// Byte length of the checksum trailer.
pub const TRAILER_LEN: usize = frame::TRAILER_LEN;
/// Hard ceiling on `payload_len`. A header claiming more is forged or
/// corrupt; the server rejects it before allocating or reading further.
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Ceiling on a single read/write transfer. Larger I/O is split into
/// multiple requests by the client library ([`FileSystem::write`]'s
/// partial-write contract makes that transparent to callers).
///
/// [`FileSystem::write`]: atomfs_vfs::FileSystem::write
pub const MAX_IO_LEN: usize = 256 << 10;

/// Response `code` for an error frame; the payload is the errno as u32.
pub const CODE_ERR: u8 = 0xFF;

/// `Open` flag bits (request payload), mirroring `vfs::OpenOptions`.
pub const FLAG_READ: u8 = 1 << 0;
/// `Open` flag: allow writes.
pub const FLAG_WRITE: u8 = 1 << 1;
/// `Open` flag: create if missing.
pub const FLAG_CREATE: u8 = 1 << 2;
/// `Open` flag: truncate on open.
pub const FLAG_TRUNC: u8 = 1 << 3;
/// `Open` flag: append mode.
pub const FLAG_APPEND: u8 = 1 << 4;
/// All defined flag bits; a frame carrying any other bit is rejected.
pub const FLAG_MASK: u8 = 0x1F;

/// Seed of the wire [`checksum`]; the journal uses another, so a
/// journal record can never double as a frame.
const SEED: u64 = 0x5114_2b5c_9e1e_f00d;

/// The frame checksum: [`atomfs_vfs::checksum()`] under the wire's seed.
/// See the module docs.
pub fn checksum(bytes: &[u8]) -> u64 {
    atomfs_vfs::checksum(SEED, bytes)
}

/// Opcodes, in wire order.
mod op {
    pub const MKNOD: u8 = 0;
    pub const MKDIR: u8 = 1;
    pub const UNLINK: u8 = 2;
    pub const RMDIR: u8 = 3;
    pub const RENAME: u8 = 4;
    pub const STAT: u8 = 5;
    pub const READDIR: u8 = 6;
    pub const READ: u8 = 7;
    pub const WRITE: u8 = 8;
    pub const TRUNCATE: u8 = 9;
    pub const SYNC: u8 = 10;
    pub const OPEN: u8 = 11;
    pub const CLOSE: u8 = 12;
    pub const PREAD: u8 = 13;
    pub const PWRITE: u8 = 14;
}

/// A request with payload fields borrowed from the frame buffer.
///
/// This is the decode type the server's hot path uses: the connection's
/// frame buffer outlives the dispatch, so paths and write payloads are
/// served as slices into it — no per-request field allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqView<'a> {
    /// `mknod(path)`.
    Mknod {
        /// Target path.
        path: &'a str,
    },
    /// `mkdir(path)`.
    Mkdir {
        /// Target path.
        path: &'a str,
    },
    /// `unlink(path)`.
    Unlink {
        /// Target path.
        path: &'a str,
    },
    /// `rmdir(path)`.
    Rmdir {
        /// Target path.
        path: &'a str,
    },
    /// `rename(src, dst)`.
    Rename {
        /// Source path.
        src: &'a str,
        /// Destination path.
        dst: &'a str,
    },
    /// `stat(path)`.
    Stat {
        /// Target path.
        path: &'a str,
    },
    /// `readdir(path)`.
    Readdir {
        /// Target path.
        path: &'a str,
    },
    /// Path-based positional read.
    Read {
        /// Target path.
        path: &'a str,
        /// Byte offset.
        offset: u64,
        /// Requested length, clamped to [`MAX_IO_LEN`] at decode.
        len: u32,
    },
    /// Path-based positional write.
    Write {
        /// Target path.
        path: &'a str,
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: &'a [u8],
    },
    /// `truncate(path, size)`.
    Truncate {
        /// Target path.
        path: &'a str,
        /// New size.
        size: u64,
    },
    /// `sync()`.
    Sync,
    /// Open a descriptor in this connection's FD table.
    Open {
        /// Target path.
        path: &'a str,
        /// [`FLAG_READ`]-family bits.
        flags: u8,
    },
    /// Close a descriptor.
    Close {
        /// Descriptor number.
        fd: u32,
    },
    /// Descriptor-based positional read (`pread`).
    PRead {
        /// Descriptor number.
        fd: u32,
        /// Byte offset.
        offset: u64,
        /// Requested length, clamped to [`MAX_IO_LEN`] at decode.
        len: u32,
    },
    /// Descriptor-based positional write (`pwrite`).
    PWrite {
        /// Descriptor number.
        fd: u32,
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: &'a [u8],
    },
}

/// An owned request (client side and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Request {
    Mknod {
        path: String,
    },
    Mkdir {
        path: String,
    },
    Unlink {
        path: String,
    },
    Rmdir {
        path: String,
    },
    Rename {
        src: String,
        dst: String,
    },
    Stat {
        path: String,
    },
    Readdir {
        path: String,
    },
    Read {
        path: String,
        offset: u64,
        len: u32,
    },
    Write {
        path: String,
        offset: u64,
        data: Vec<u8>,
    },
    Truncate {
        path: String,
        size: u64,
    },
    Sync,
    Open {
        path: String,
        flags: u8,
    },
    Close {
        fd: u32,
    },
    PRead {
        fd: u32,
        offset: u64,
        len: u32,
    },
    PWrite {
        fd: u32,
        offset: u64,
        data: Vec<u8>,
    },
}

impl Request {
    /// Borrow this request as a [`ReqView`].
    pub fn view(&self) -> ReqView<'_> {
        match self {
            Request::Mknod { path } => ReqView::Mknod { path },
            Request::Mkdir { path } => ReqView::Mkdir { path },
            Request::Unlink { path } => ReqView::Unlink { path },
            Request::Rmdir { path } => ReqView::Rmdir { path },
            Request::Rename { src, dst } => ReqView::Rename { src, dst },
            Request::Stat { path } => ReqView::Stat { path },
            Request::Readdir { path } => ReqView::Readdir { path },
            Request::Read { path, offset, len } => ReqView::Read {
                path,
                offset: *offset,
                len: *len,
            },
            Request::Write { path, offset, data } => ReqView::Write {
                path,
                offset: *offset,
                data,
            },
            Request::Truncate { path, size } => ReqView::Truncate { path, size: *size },
            Request::Sync => ReqView::Sync,
            Request::Open { path, flags } => ReqView::Open {
                path,
                flags: *flags,
            },
            Request::Close { fd } => ReqView::Close { fd: *fd },
            Request::PRead { fd, offset, len } => ReqView::PRead {
                fd: *fd,
                offset: *offset,
                len: *len,
            },
            Request::PWrite { fd, offset, data } => ReqView::PWrite {
                fd: *fd,
                offset: *offset,
                data,
            },
        }
    }
}

impl ReqView<'_> {
    /// Deep-copy into an owned [`Request`].
    pub fn to_owned(&self) -> Request {
        match *self {
            ReqView::Mknod { path } => Request::Mknod { path: path.into() },
            ReqView::Mkdir { path } => Request::Mkdir { path: path.into() },
            ReqView::Unlink { path } => Request::Unlink { path: path.into() },
            ReqView::Rmdir { path } => Request::Rmdir { path: path.into() },
            ReqView::Rename { src, dst } => Request::Rename {
                src: src.into(),
                dst: dst.into(),
            },
            ReqView::Stat { path } => Request::Stat { path: path.into() },
            ReqView::Readdir { path } => Request::Readdir { path: path.into() },
            ReqView::Read { path, offset, len } => Request::Read {
                path: path.into(),
                offset,
                len,
            },
            ReqView::Write { path, offset, data } => Request::Write {
                path: path.into(),
                offset,
                data: data.into(),
            },
            ReqView::Truncate { path, size } => Request::Truncate {
                path: path.into(),
                size,
            },
            ReqView::Sync => Request::Sync,
            ReqView::Open { path, flags } => Request::Open {
                path: path.into(),
                flags,
            },
            ReqView::Close { fd } => Request::Close { fd },
            ReqView::PRead { fd, offset, len } => Request::PRead { fd, offset, len },
            ReqView::PWrite { fd, offset, data } => Request::PWrite {
                fd,
                offset,
                data: data.into(),
            },
        }
    }

    fn opcode(&self) -> u8 {
        match self {
            ReqView::Mknod { .. } => op::MKNOD,
            ReqView::Mkdir { .. } => op::MKDIR,
            ReqView::Unlink { .. } => op::UNLINK,
            ReqView::Rmdir { .. } => op::RMDIR,
            ReqView::Rename { .. } => op::RENAME,
            ReqView::Stat { .. } => op::STAT,
            ReqView::Readdir { .. } => op::READDIR,
            ReqView::Read { .. } => op::READ,
            ReqView::Write { .. } => op::WRITE,
            ReqView::Truncate { .. } => op::TRUNCATE,
            ReqView::Sync => op::SYNC,
            ReqView::Open { .. } => op::OPEN,
            ReqView::Close { .. } => op::CLOSE,
            ReqView::PRead { .. } => op::PREAD,
            ReqView::PWrite { .. } => op::PWRITE,
        }
    }
}

/// Start a frame at the end of `out`: its header with a placeholder
/// payload length. Returns where the frame starts, for [`seal_frame`].
fn begin_frame(out: &mut Vec<u8>, magic: u32, code: u8, tag: u64) -> usize {
    let start = out.len();
    put_u32(out, magic);
    out.push(VERSION);
    out.push(code);
    put_u64(out, tag);
    put_u32(out, 0); // payload_len, patched by the seal
    start
}

/// Seal the frame begun at `start`: everything after its header is the
/// payload.
#[inline]
fn seal_frame(out: &mut Vec<u8>, start: usize) {
    frame::seal(out, start, HDR_LEN, SEED);
}

/// Append one encoded request frame to `out` (which may already hold
/// other frames — the checksum covers only this frame's bytes).
pub fn encode_request_frame(out: &mut Vec<u8>, tag: u64, req: &ReqView<'_>) {
    let start = begin_frame(out, REQ_MAGIC, req.opcode(), tag);
    match *req {
        ReqView::Mknod { path }
        | ReqView::Mkdir { path }
        | ReqView::Unlink { path }
        | ReqView::Rmdir { path }
        | ReqView::Stat { path }
        | ReqView::Readdir { path } => put_len_prefixed(out, path.as_bytes()),
        ReqView::Rename { src, dst } => {
            put_len_prefixed(out, src.as_bytes());
            put_len_prefixed(out, dst.as_bytes());
        }
        ReqView::Read { path, offset, len } => {
            put_len_prefixed(out, path.as_bytes());
            put_u64(out, offset);
            put_u32(out, len);
        }
        ReqView::Write { path, offset, data } => {
            put_len_prefixed(out, path.as_bytes());
            put_u64(out, offset);
            out.extend_from_slice(data);
        }
        ReqView::Truncate { path, size } => {
            put_len_prefixed(out, path.as_bytes());
            put_u64(out, size);
        }
        ReqView::Sync => {}
        ReqView::Open { path, flags } => {
            put_len_prefixed(out, path.as_bytes());
            out.push(flags);
        }
        ReqView::Close { fd } => put_u32(out, fd),
        ReqView::PRead { fd, offset, len } => {
            put_u32(out, fd);
            put_u64(out, offset);
            put_u32(out, len);
        }
        ReqView::PWrite { fd, offset, data } => {
            put_u32(out, fd);
            put_u64(out, offset);
            out.extend_from_slice(data);
        }
    }
    seal_frame(out, start);
}

/// Parse a request payload once the frame envelope has been verified.
///
/// Strict: the whole payload must be consumed, paths must be UTF-8,
/// lengths are clamped ([`MAX_IO_LEN`]), and `Open` flags must stay
/// within [`FLAG_MASK`].
pub fn parse_request_payload(opcode: u8, payload: &[u8]) -> Option<ReqView<'_>> {
    let mut r = Reader::new(payload);
    let req = match opcode {
        op::MKNOD => ReqView::Mknod { path: r.str()? },
        op::MKDIR => ReqView::Mkdir { path: r.str()? },
        op::UNLINK => ReqView::Unlink { path: r.str()? },
        op::RMDIR => ReqView::Rmdir { path: r.str()? },
        op::RENAME => ReqView::Rename {
            src: r.str()?,
            dst: r.str()?,
        },
        op::STAT => ReqView::Stat { path: r.str()? },
        op::READDIR => ReqView::Readdir { path: r.str()? },
        op::READ => {
            let path = r.str()?;
            let offset = r.u64()?;
            let len = r.u32()?;
            if len as usize > MAX_IO_LEN {
                return None;
            }
            ReqView::Read { path, offset, len }
        }
        op::WRITE => {
            let path = r.str()?;
            let offset = r.u64()?;
            let data = r.rest();
            if data.len() > MAX_IO_LEN {
                return None;
            }
            ReqView::Write { path, offset, data }
        }
        op::TRUNCATE => ReqView::Truncate {
            path: r.str()?,
            size: r.u64()?,
        },
        op::SYNC => ReqView::Sync,
        op::OPEN => {
            let path = r.str()?;
            let flags = r.u8()?;
            if flags & !FLAG_MASK != 0 {
                return None;
            }
            ReqView::Open { path, flags }
        }
        op::CLOSE => ReqView::Close { fd: r.u32()? },
        op::PREAD => {
            let fd = r.u32()?;
            let offset = r.u64()?;
            let len = r.u32()?;
            if len as usize > MAX_IO_LEN {
                return None;
            }
            ReqView::PRead { fd, offset, len }
        }
        op::PWRITE => {
            let fd = r.u32()?;
            let offset = r.u64()?;
            let data = r.rest();
            if data.len() > MAX_IO_LEN {
                return None;
            }
            ReqView::PWrite { fd, offset, data }
        }
        _ => return None,
    };
    if !r.done() {
        return None; // trailing garbage inside the payload
    }
    Some(req)
}

/// A reader past the frame's magic and version, or `None` when `buf`
/// does not start with `magic` and [`VERSION`]. Checked before any
/// length is trusted or any byte summed.
fn header(buf: &[u8], magic: u32) -> Option<Reader<'_>> {
    let mut r = Reader::new(buf);
    (r.u32()? == magic && r.u8()? == VERSION).then_some(r)
}

/// Open a frame at the start of `buf`: magic, version, then
/// [`frame::open`]'s clamped payload length and checksum. Returns
/// `(code, tag, payload, total_len)`.
fn open_frame(buf: &[u8], magic: u32) -> Option<(u8, u64, &[u8], usize)> {
    let mut r = header(buf, magic)?;
    let (_, payload, total) = frame::open(buf, HDR_LEN, MAX_PAYLOAD, SEED)?;
    Some((r.u8()?, r.u64()?, payload, total))
}

/// Decode one request frame at the start of `buf`, returning the tag,
/// the borrowed request, and the frame's total encoded length.
pub fn decode_request_frame(buf: &[u8]) -> Option<(u64, ReqView<'_>, usize)> {
    let (opcode, tag, payload, total) = open_frame(buf, REQ_MAGIC)?;
    let req = parse_request_payload(opcode, payload)?;
    Some((tag, req, total))
}

/// Response kinds (the `code` byte of an ok frame).
mod kind {
    pub const UNIT: u8 = 0;
    pub const FD: u8 = 1;
    pub const LEN: u8 = 2;
    pub const STAT: u8 = 3;
    pub const NAMES: u8 = 4;
    pub const DATA: u8 = 5;
}

/// An owned, decoded response (client side and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success with no payload.
    Unit,
    /// A descriptor from `Open`.
    Fd(u32),
    /// A byte count from `Write`/`PWrite`.
    Len(u64),
    /// Metadata from `Stat`.
    Stat(Metadata),
    /// Names from `Readdir`.
    Names(Vec<String>),
    /// Bytes from `Read`/`PRead`.
    Data(Vec<u8>),
    /// The operation failed with this error.
    Err(FsError),
}

/// Append one response frame with `code`, its payload written by
/// `payload`.
fn respond(out: &mut Vec<u8>, tag: u64, code: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = begin_frame(out, RSP_MAGIC, code, tag);
    payload(out);
    seal_frame(out, start);
}

/// Append an ok/unit response frame.
pub fn encode_response_unit(out: &mut Vec<u8>, tag: u64) {
    respond(out, tag, kind::UNIT, |_| {});
}

/// Append an ok/fd response frame.
pub fn encode_response_fd(out: &mut Vec<u8>, tag: u64, fd: u32) {
    respond(out, tag, kind::FD, |out| put_u32(out, fd));
}

/// Append an ok/len response frame.
pub fn encode_response_len(out: &mut Vec<u8>, tag: u64, n: u64) {
    respond(out, tag, kind::LEN, |out| put_u64(out, n));
}

/// Append an ok/stat response frame.
pub fn encode_response_stat(out: &mut Vec<u8>, tag: u64, meta: &Metadata) {
    respond(out, tag, kind::STAT, |out| {
        put_u64(out, meta.ino);
        out.push(match meta.ftype {
            FileType::File => 0,
            FileType::Dir => 1,
        });
        put_u64(out, meta.size);
        put_u32(out, meta.nlink);
    });
}

/// Append an ok/names response frame. Returns `false` (encoding nothing)
/// if the listing cannot fit in [`MAX_PAYLOAD`]; the caller should send
/// an error frame instead — the protocol never silently truncates.
pub fn encode_response_names(out: &mut Vec<u8>, tag: u64, names: &[String]) -> bool {
    let need: usize = 4 + names.iter().map(|n| 4 + n.len()).sum::<usize>();
    if need > MAX_PAYLOAD {
        return false;
    }
    respond(out, tag, kind::NAMES, |out| {
        put_u32(out, names.len() as u32);
        for n in names {
            put_len_prefixed(out, n.as_bytes());
        }
    });
    true
}

/// Append an ok/data response frame.
pub fn encode_response_data(out: &mut Vec<u8>, tag: u64, data: &[u8]) {
    respond(out, tag, kind::DATA, |out| out.extend_from_slice(data));
}

/// Append the reply to a `Read`/`PRead` of `len` bytes (at most
/// [`MAX_IO_LEN`]), filled in place: `read` gets the zeroed payload of
/// an ok/data frame and returns how many bytes it read, and the payload
/// is trimmed to that. On `Err` the frame is dropped and an error frame
/// appended instead. No buffer but `out` is touched.
pub fn encode_response_read(
    out: &mut Vec<u8>,
    tag: u64,
    len: usize,
    read: impl FnOnce(&mut [u8]) -> Result<usize, FsError>,
) {
    let start = begin_frame(out, RSP_MAGIC, kind::DATA, tag);
    let body = out.len();
    out.resize(body + len.min(MAX_IO_LEN), 0);
    match read(&mut out[body..]) {
        Ok(n) => {
            out.truncate(body + n);
            seal_frame(out, start);
        }
        Err(e) => {
            out.truncate(start);
            encode_response_err(out, tag, e);
        }
    }
}

/// Append an error response frame.
pub fn encode_response_err(out: &mut Vec<u8>, tag: u64, err: FsError) {
    respond(out, tag, CODE_ERR, |out| put_u32(out, err.errno() as u32));
}

/// Append an owned [`Response`] (tests and symmetry with decode; the
/// server uses the specific `encode_response_*` functions directly).
pub fn encode_response(out: &mut Vec<u8>, tag: u64, rsp: &Response) {
    match rsp {
        Response::Unit => encode_response_unit(out, tag),
        Response::Fd(fd) => encode_response_fd(out, tag, *fd),
        Response::Len(n) => encode_response_len(out, tag, *n),
        Response::Stat(m) => encode_response_stat(out, tag, m),
        Response::Names(names) => {
            assert!(
                encode_response_names(out, tag, names),
                "listing exceeds MAX_PAYLOAD"
            );
        }
        Response::Data(d) => encode_response_data(out, tag, d),
        Response::Err(e) => encode_response_err(out, tag, *e),
    }
}

/// The [`FsError`] for a wire errno, `None` for unknown values (the
/// frame is rejected — checksummed frames only carry known errnos).
pub fn fserror_from_errno(errno: u32) -> Option<FsError> {
    let all = [
        FsError::NotFound,
        FsError::Exists,
        FsError::NotDir,
        FsError::IsDir,
        FsError::NotEmpty,
        FsError::InvalidArgument,
        FsError::NameTooLong,
        FsError::NoSpace,
        FsError::FileTooBig,
        FsError::BadFd,
        FsError::PermissionDenied,
        FsError::Busy,
        FsError::ReadOnly,
        FsError::Unsupported,
        FsError::Io,
    ];
    all.into_iter().find(|e| e.errno() as u32 == errno)
}

/// Decode one response frame at the start of `buf`, returning the tag,
/// the owned response, and the frame's total encoded length.
pub fn decode_response_frame(buf: &[u8]) -> Option<(u64, Response, usize)> {
    let (code, tag, payload, total) = open_frame(buf, RSP_MAGIC)?;
    let mut r = Reader::new(payload);
    let rsp = match code {
        kind::UNIT => Response::Unit,
        kind::FD => Response::Fd(r.u32()?),
        kind::LEN => Response::Len(r.u64()?),
        kind::STAT => {
            let ino = r.u64()?;
            let ftype = match r.u8()? {
                0 => FileType::File,
                1 => FileType::Dir,
                _ => return None,
            };
            let size = r.u64()?;
            let nlink = r.u32()?;
            Response::Stat(Metadata {
                ino,
                ftype,
                size,
                nlink,
            })
        }
        kind::NAMES => {
            // Every name costs at least its 4-byte length prefix: a
            // count the remaining payload cannot possibly hold is
            // corrupt — `count` rejects it before `Vec::with_capacity`.
            let count = r.count(4)?;
            let mut names = Vec::with_capacity(count);
            for _ in 0..count {
                names.push(r.str()?.to_string());
            }
            Response::Names(names)
        }
        kind::DATA => Response::Data(r.rest().to_vec()),
        CODE_ERR => Response::Err(fserror_from_errno(r.u32()?)?),
        _ => return None,
    };
    if !r.done() {
        return None;
    }
    Some((tag, rsp, total))
}

/// Split a verified-or-not byte stream chunk: header fields needed to
/// know how many more bytes a frame wants. Returns
/// `(payload_len, total_frame_len)` if the 18-byte header prefix parses
/// with the right magic/version and a clamped length — the checksum is
/// *not* checked here (the rest of the frame may not have arrived yet).
pub fn frame_size_hint(hdr: &[u8], magic: u32) -> Option<(usize, usize)> {
    header(hdr, magic)?;
    let total = frame::peek_total(hdr, HDR_LEN, MAX_PAYLOAD)?;
    Some((total - HDR_LEN - TRAILER_LEN, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, 42, &req.view());
        let (tag, view, total) = decode_request_frame(&buf).expect("decodes");
        assert_eq!(tag, 42);
        assert_eq!(view.to_owned(), req);
        assert_eq!(total, buf.len());
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Mknod {
            path: "/a/b".into(),
        });
        roundtrip_req(Request::Rename {
            src: "/x".into(),
            dst: "/y".into(),
        });
        roundtrip_req(Request::Read {
            path: "/f".into(),
            offset: 7,
            len: 512,
        });
        roundtrip_req(Request::Write {
            path: "/f".into(),
            offset: 0,
            data: b"hello".to_vec(),
        });
        roundtrip_req(Request::Sync);
        roundtrip_req(Request::Open {
            path: "/f".into(),
            flags: FLAG_READ | FLAG_WRITE | FLAG_CREATE,
        });
        roundtrip_req(Request::PWrite {
            fd: 3,
            offset: 9,
            data: vec![0, 1, 2],
        });
    }

    #[test]
    fn response_roundtrips() {
        for rsp in [
            Response::Unit,
            Response::Fd(9),
            Response::Len(1 << 40),
            Response::Stat(Metadata::dir(5, 3, 1)),
            Response::Names(vec!["a".into(), "bb".into()]),
            Response::Data(vec![1, 2, 3]),
            Response::Err(FsError::NotFound),
        ] {
            let mut buf = Vec::new();
            encode_response(&mut buf, 7, &rsp);
            let (tag, got, total) = decode_response_frame(&buf).expect("decodes");
            assert_eq!(tag, 7);
            assert_eq!(got, rsp);
            assert_eq!(total, buf.len());
        }
    }

    #[test]
    fn frames_concatenate() {
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, 1, &Request::Sync.view());
        encode_request_frame(&mut buf, 2, &Request::Stat { path: "/p".into() }.view());
        let (tag1, _, n1) = decode_request_frame(&buf).unwrap();
        let (tag2, _, n2) = decode_request_frame(&buf[n1..]).unwrap();
        assert_eq!((tag1, tag2), (1, 2));
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn previous_version_is_refused() {
        // A version-1 frame, otherwise well-formed and honestly summed.
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, 1, &Request::Sync.view());
        buf[4] = 1;
        let end = buf.len() - TRAILER_LEN;
        let sum = checksum(&buf[..end]);
        buf[end..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode_request_frame(&buf).is_none());
        assert!(frame_size_hint(&buf, REQ_MAGIC).is_none());
    }

    #[test]
    fn wrong_direction_magic_rejected() {
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, 1, &Request::Sync.view());
        assert!(decode_response_frame(&buf).is_none());
    }

    #[test]
    fn forged_huge_payload_len_rejected_without_allocation() {
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, 1, &Request::Sync.view());
        // Patch payload_len to u32::MAX; decode must bail on the clamp,
        // long before trying to take() or allocate that much.
        buf[HDR_LEN - 4..HDR_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request_frame(&buf).is_none());
        assert!(frame_size_hint(&buf, REQ_MAGIC).is_none());
    }

    #[test]
    fn forged_names_count_rejected() {
        // Hand-build an ok/names payload claiming 2^31 names in 8 bytes.
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf, RSP_MAGIC, kind::NAMES, 3);
        put_u32(&mut buf, 1 << 31);
        put_u32(&mut buf, 0);
        seal_frame(&mut buf, start);
        assert!(decode_response_frame(&buf).is_none());
    }

    #[test]
    fn io_len_clamped() {
        let mut buf = Vec::new();
        encode_request_frame(
            &mut buf,
            1,
            &Request::PRead {
                fd: 0,
                offset: 0,
                len: (MAX_IO_LEN + 1) as u32,
            }
            .view(),
        );
        assert!(decode_request_frame(&buf).is_none());
    }

    #[test]
    fn open_flags_outside_mask_rejected() {
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf, REQ_MAGIC, op::OPEN, 5);
        put_len_prefixed(&mut buf, b"/f");
        buf.push(0x80);
        seal_frame(&mut buf, start);
        assert!(decode_request_frame(&buf).is_none());
    }

    #[test]
    fn in_place_read_reply_is_trimmed_or_replaced_by_its_error() {
        let mut buf = Vec::new();
        encode_response_unit(&mut buf, 1); // an earlier reply
        let at = buf.len();
        encode_response_read(&mut buf, 2, 100, |b| {
            b[..3].copy_from_slice(b"abc");
            Ok(3)
        });
        encode_response_read(&mut buf, 3, MAX_IO_LEN + 1, |b| {
            assert_eq!(b.len(), MAX_IO_LEN, "clamped");
            Err(FsError::IsDir)
        });
        let (_, _, n) = decode_response_frame(&buf).unwrap();
        assert_eq!(n, at);
        let (tag, rsp, m) = decode_response_frame(&buf[at..]).unwrap();
        assert_eq!((tag, rsp), (2, Response::Data(b"abc".to_vec())));
        let (tag, rsp, k) = decode_response_frame(&buf[at + m..]).unwrap();
        assert_eq!((tag, rsp), (3, Response::Err(FsError::IsDir)));
        assert_eq!(at + m + k, buf.len());
    }

    #[test]
    fn size_hint_matches_encoded_total() {
        let mut buf = Vec::new();
        encode_request_frame(
            &mut buf,
            1,
            &Request::Write {
                path: "/f".into(),
                offset: 0,
                data: vec![7; 100],
            }
            .view(),
        );
        let (_, total) = frame_size_hint(&buf, REQ_MAGIC).unwrap();
        assert_eq!(total, buf.len());
    }
}
