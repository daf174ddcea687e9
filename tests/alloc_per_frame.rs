//! Steady-state frames allocate nothing that scales with the frame.
//!
//! A counting global allocator measures the bytes one frame allocates
//! on the calling thread once the path is warm. Writing into a
//! caller-owned output, that figure must be the same at a small and a
//! large frame: every frame-sized buffer belongs to the caller or to
//! the compiled plan, never to the per-frame execution.
//!
//! Kept to one test so nothing else runs in this binary while the
//! counter is live; only the measuring thread's allocations count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use fisheye::core::composite::{execute_composite_host, CompositePlan};
use fisheye::core::engine::HostEnv;
use fisheye::geom::CameraRig;
use fisheye::prelude::*;

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes this thread allocates for one frame after two warm-up frames
/// (lazy LUT derivation and the like happen once, not per frame).
fn steady_frame_bytes(mut frame: impl FnMut()) -> u64 {
    frame();
    frame();
    BYTES.store(0, Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    frame();
    MEASURING.with(|m| m.set(false));
    BYTES.load(Ordering::Relaxed)
}

/// `Corrector::correct_into` on a `w x h` gray8 stream.
fn corrector_bytes(spec: EngineSpec, w: u32, h: u32) -> u64 {
    let corrector = Corrector::<Gray8>::builder()
        .lens(FisheyeLens::equidistant_fov(w, h, 180.0))
        .view(PerspectiveView::centered(w, h, 90.0))
        .backend(spec)
        .build()
        .expect("corrector builds");
    let src = fisheye::img::scene::random_gray(w, h, 11);
    let mut out = Image::new(w, h);
    steady_frame_bytes(|| {
        corrector
            .correct_into(&src, &mut out)
            .expect("frame corrects");
    })
}

/// Host composite execution of a dual-fisheye rig with `s x s`
/// sensors onto a `2s x s` panorama.
fn composite_bytes(spec: EngineSpec, s: u32) -> u64 {
    let rig = CameraRig::symmetric(s, s, 195.0);
    let opts = PlanOptions::for_spec(&spec, Interpolator::Bilinear);
    let plan = CompositePlan::compile_panorama(&rig, 2 * s, s, &opts);
    let front = fisheye::img::scene::random_gray(s, s, 12);
    let back = fisheye::img::scene::random_gray(s, s, 13);
    let mut out = Image::new(2 * s, s);
    steady_frame_bytes(|| {
        execute_composite_host(
            &spec,
            Interpolator::Bilinear,
            &[&front, &back],
            &plan,
            None,
            &HostEnv::default(),
            &mut out,
        )
        .expect("composite runs");
    })
}

#[test]
fn per_frame_allocation_does_not_scale_with_the_frame() {
    for spec in [
        EngineSpec::Serial,
        EngineSpec::Simd,
        EngineSpec::FixedPoint { frac_bits: 12 },
    ] {
        let qvga = corrector_bytes(spec, 320, 240);
        let vga = corrector_bytes(spec, 640, 480);
        assert_eq!(
            qvga, vga,
            "{spec}: Corrector::correct_into allocates {qvga} B/frame at QVGA, {vga} B at VGA"
        );
        let small = composite_bytes(spec, 240);
        let large = composite_bytes(spec, 480);
        assert_eq!(
            small, large,
            "{spec}: composite allocates {small} B/frame at 480x240, {large} B at 960x480"
        );
    }
}
