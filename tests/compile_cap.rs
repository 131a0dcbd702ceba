//! A scenario one point over the server's space cap is refused at
//! `COMPILE` before anything is sized from its space: the whole exchange,
//! server threads included, allocates less than one byte per point; one at
//! the cap compiles. A
//! counting global allocator around [`System`] tallies the bytes every
//! thread of this test process asks for; it is the only test in its binary,
//! so nothing else allocates meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use jigsaw::server::{Client, ErrorCode, JigsawServer, Request, Response, MAX_SPACE_POINTS};

/// [`System`], counting the bytes of every allocation call on any thread
/// (`alloc`, `alloc_zeroed`, and a `realloc`'s new size).
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_compile_over_the_point_cap_is_refused_without_per_point_allocation() {
    let handle = JigsawServer::builder().bind("127.0.0.1:0").expect("bind").serve().expect("serve");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let src = |last: usize| {
        format!(
            "DECLARE PARAMETER @p AS RANGE 0 TO {last} STEP BY 1; \
             SELECT Synth8(@p) AS out INTO results;"
        )
    };
    let before = BYTES.load(Ordering::Relaxed);
    let reply = client.request(&Request::Compile { src: src(MAX_SPACE_POINTS) }).expect("answered");
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert!(
        matches!(&reply, Response::Error { code: ErrorCode::Compile, message } if message.contains("cap")),
        "{reply:?}"
    );
    assert!(bytes < (MAX_SPACE_POINTS + 1) as u64, "{bytes} bytes for one refused COMPILE");
    // The connection keeps serving, and a space at the cap compiles.
    let at_cap = client.request(&Request::Compile { src: src(MAX_SPACE_POINTS - 1) });
    assert!(
        matches!(at_cap, Ok(Response::Compiled { points: MAX_SPACE_POINTS, .. })),
        "{at_cap:?}"
    );
    handle.shutdown().expect("shutdown");
}
