//! The Unix-socket daemon: accept loop, bounded frame reader, and the
//! per-connection request loop.

use super::executor::{spawn_executor, ExecutorHandle};
use super::protocol::{synthesized_envelope, EXIT_USAGE, MAX_FRAME_BYTES};
use super::session::Session;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Runs the daemon: binds `socket`, accepts any number of concurrent
/// clients, and feeds their JSON-lines requests into a shared executor.
/// Returns after a `shutdown` request has been answered (the socket file
/// is removed on the way out).
pub fn serve_unix(socket: &Path, session: Session) -> Result<(), String> {
    let _ = std::fs::remove_file(socket);
    let listener =
        UnixListener::bind(socket).map_err(|e| format!("cannot bind {}: {e}", socket.display()))?;
    let (handle, exec_thread) = spawn_executor(session);
    let shutting = Arc::new(AtomicBool::new(false));
    eprintln!("ompgpu serve: listening on {}", socket.display());
    for stream in listener.incoming() {
        if shutting.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let handle = handle.clone();
        let shutting = Arc::clone(&shutting);
        let sock: PathBuf = socket.to_path_buf();
        // Connection threads are detached: a client that never
        // disconnects must not block shutdown (its next send simply
        // fails once the executor is gone).
        std::thread::spawn(move || serve_connection(stream, handle, shutting, sock));
    }
    drop(listener);
    drop(handle);
    let _ = exec_thread.join();
    let _ = std::fs::remove_file(socket);
    Ok(())
}

/// One frame read from a connection.
pub(super) enum Frame {
    /// A complete line (newline stripped).
    Line(String),
    /// The line ran past the size limit; the reader discarded through
    /// the next newline, so the connection stays usable. Carries the
    /// total number of bytes in the oversized line.
    TooLarge(usize),
    /// End of stream (or a read error).
    Eof,
}

/// Reads one newline-terminated frame, buffering at most `max + 1`
/// bytes no matter how long the incoming line is — a single client
/// cannot make the daemon buffer an unbounded frame.
pub(super) fn read_frame(reader: &mut impl BufRead, max: usize) -> Frame {
    let mut buf: Vec<u8> = Vec::new();
    let mut total: usize = 0;
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => {
                return match (total, total > max) {
                    (0, _) => Frame::Eof,
                    (_, true) => Frame::TooLarge(total),
                    (_, false) => Frame::Line(String::from_utf8_lossy(&buf).into_owned()),
                }
            }
            Ok(c) => c,
            Err(_) => return Frame::Eof,
        };
        let (line_bytes, consumed, complete) = match chunk.iter().position(|b| *b == b'\n') {
            Some(pos) => (pos, pos + 1, true),
            None => (chunk.len(), chunk.len(), false),
        };
        if total <= max {
            // Keep at most one byte past the limit: enough to detect
            // overflow without buffering the rest of a huge line.
            let keep = line_bytes.min(max + 1 - total);
            buf.extend_from_slice(&chunk[..keep]);
        }
        total += line_bytes;
        reader.consume(consumed);
        if complete {
            return if total > max {
                Frame::TooLarge(total)
            } else {
                Frame::Line(String::from_utf8_lossy(&buf).into_owned())
            };
        }
    }
}

fn serve_connection(
    stream: UnixStream,
    handle: ExecutorHandle,
    shutting: Arc<AtomicBool>,
    socket: PathBuf,
) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let resp = match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Frame::Eof => break,
            Frame::TooLarge(n) => synthesized_envelope(
                "",
                EXIT_USAGE,
                &format!("frame too large: {n} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
                None,
            ),
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle.request(&line)
            }
        };
        if writer.write_all(resp.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            break;
        }
        let _ = writer.flush();
        // The executor flips the shared shutdown flag before answering
        // a `shutdown` request; polling it here replaces the old
        // re-parse of every response JSON on the hot path. Poke the
        // listener with a throwaway connection to stop the accept loop.
        if handle.is_shut_down() {
            shutting.store(true, Ordering::SeqCst);
            let _ = UnixStream::connect(&socket);
            break;
        }
    }
}
