//! T6 — the color bill across host backends: YUV420 and planar RGB
//! versus same-resolution grayscale, per backend.
//!
//! The paper's deployment argument for YUV 4:2:0 is arithmetic: one
//! full-resolution luma plane plus two quarter-area chroma planes is
//! 1.5× the pixels of grayscale, against 3× for RGB. This table
//! checks that the *measured* multi-plane [`FrameCorrector`] cost
//! tracks that pixel arithmetic on every host backend (serial, smp,
//! simd) — i.e. that the frame layer adds per-plane dispatch, not a
//! per-plane tax. Times are the merged report's summed per-plane
//! kernel cost ([`FrameReport::correct_time`]), so allocation and
//! wall-clock scheduling noise are excluded and the ratio isolates
//! the kernels.
//!
//! The paper band for YUV420 is **1.4–1.6× grayscale**; the `vs_gray`
//! column should sit in it on every backend.
//!
//! [`FrameReport::correct_time`]: fisheye_core::engine::FrameReport

use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::{Frame, FrameCorrector, FrameFormat, ViewPlan};
use fisheye_core::plan::PlanOptions;
use fisheye_core::Interpolator;
use par_runtime::Schedule;
use pixmap::yuv::Yuv420;
use pixmap::{Image, Rgb8};

use crate::table::{f2, Table};
use crate::workloads::{default_resolution, median, resolution, time_median};
use crate::Scale;

/// The host backends the table sweeps. Fixed-point is excluded only
/// because its LUT quantization changes the kernel itself; the three
/// here share bilinear arithmetic, so the format ratio is apples to
/// apples.
fn backends() -> Vec<(&'static str, EngineSpec, usize)> {
    vec![
        ("serial", EngineSpec::Serial, 1),
        (
            "smp",
            EngineSpec::Smp {
                schedule: Schedule::Static { chunk: None },
            },
            4,
        ),
        ("simd", EngineSpec::Simd, 1),
    ]
}

/// One run's summed kernel time from the merged report.
fn kernel_time(corrector: &FrameCorrector, frame: &Frame) -> f64 {
    let (out, report) = corrector
        .correct_frame(frame)
        .expect("host backends correct every byte format");
    std::hint::black_box(out);
    report.correct_time.as_secs_f64()
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let (res, reps) = match scale {
        Scale::Quick => (resolution("QVGA"), 7),
        Scale::Full => (default_resolution(scale), 9),
    };
    let interp = Interpolator::Bilinear;
    let lens = fisheye_geom::FisheyeLens::equidistant_fov(res.w, res.h, 180.0);
    let view = fisheye_geom::PerspectiveView::centered(res.w, res.h, 90.0);
    let rgb: Image<Rgb8> = pixmap::scene::random_rgb(res.w, res.h, 11);
    let frames = [
        (
            FrameFormat::Gray8,
            Frame::Gray8(rgb.map(pixmap::Gray8::from)),
        ),
        (FrameFormat::Yuv420, Frame::Yuv420(Yuv420::from_rgb(&rgb))),
        (
            FrameFormat::Rgb8,
            Frame::Rgb8 {
                r: rgb.map(|p| pixmap::Gray8(p.r)),
                g: rgb.map(|p| pixmap::Gray8(p.g)),
                b: rgb.map(|p| pixmap::Gray8(p.b)),
            },
        ),
    ];

    let mut table = Table::new(
        format!(
            "T6 — color format cost per host backend ({}, bilinear)",
            res.name
        ),
        &[
            "backend",
            "gray_ms",
            "yuv420_ms",
            "yuv_vs_gray",
            "rgb_ms",
            "rgb_vs_gray",
        ],
    );
    for (name, spec, threads) in backends() {
        let correctors: Vec<FrameCorrector> = frames
            .iter()
            .map(|(format, frame)| {
                let opts = PlanOptions::for_spec(&spec, interp);
                let plan = ViewPlan::compile(*format, &lens, &view, res.w, res.h, &opts);
                let c = FrameCorrector::host_sequential(*format, plan, &spec, interp, threads)
                    .expect("host backend builds for every byte format");
                let _ = time_median(1, || {
                    std::hint::black_box(c.correct_frame(frame).expect("warmup"));
                });
                c
            })
            .collect();
        // measure the three formats *interleaved*, rep by rep, and take
        // the ratio within each rep: machine-load drift (e.g. a busy
        // test runner) then hits numerator and denominator alike
        // instead of whichever format it happened to overlap
        let mut samples: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut yuv_ratios = Vec::new();
        let mut rgb_ratios = Vec::new();
        for _ in 0..reps {
            let rep: Vec<f64> = correctors
                .iter()
                .zip(&frames)
                .map(|(c, (_, frame))| kernel_time(c, frame))
                .collect();
            for (bucket, t) in samples.iter_mut().zip(&rep) {
                bucket.push(*t);
            }
            yuv_ratios.push(rep[1] / rep[0]);
            rgb_ratios.push(rep[2] / rep[0]);
        }
        table.row(vec![
            name.into(),
            f2(median(samples[0].clone()) * 1e3),
            f2(median(samples[1].clone()) * 1e3),
            f2(median(yuv_ratios)),
            f2(median(samples[2].clone()) * 1e3),
            f2(median(rgb_ratios)),
        ]);
    }
    table.note("times are summed per-plane kernel cost from the merged FrameReport; allocation and plane dispatch excluded");
    table.note("vs_gray is the median of per-rep ratios over interleaved runs, so slow machine-load drift cancels");
    table.note("pixel arithmetic predicts yuv420 = 1.5x gray (paper band 1.4-1.6x) and rgb = 3x on every backend");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_yuv_bill_holds_on_every_backend() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 3, "serial, smp, simd");
        let num = |s: &str| s.parse::<f64>().unwrap_or_else(|_| panic!("number: {s}"));
        for r in &t.rows {
            let yuv = num(&r[3]);
            let rgb = num(&r[5]);
            assert!(
                yuv > 1.15 && yuv < 2.0,
                "{}: yuv420 ratio {yuv} out of family",
                r[0]
            );
            assert!(
                yuv < rgb,
                "{}: yuv420 ({yuv}) must be cheaper than rgb ({rgb})",
                r[0]
            );
        }
        // the serial kernel is the least noisy: hold it near the
        // paper's 1.4-1.6x band (slack for timer jitter at quick scale)
        let serial = t
            .rows
            .iter()
            .find(|r| r[0] == "serial")
            .expect("serial row");
        let yuv = num(&serial[3]);
        assert!(
            (1.3..=1.8).contains(&yuv),
            "serial yuv420 ratio {yuv} outside the paper band neighborhood"
        );
    }
}
