//! F11 — color cost: grayscale vs YUV 4:2:0 vs full RGB correction.
//!
//! The paper-era deployment corrects YUV420 (luma full-res + chroma at
//! quarter area ×2 ≈ 1.5× the grayscale work) rather than RGB (3×).
//! This experiment verifies that cost structure holds in the
//! implementation. Every format runs the same serial span walker:
//! YUV through the multi-plane [`ViewPlan`] / [`FrameCorrector`]
//! stack (full-res luma plan + one shared half-res chroma plan),
//! grayscale and interleaved RGB through the full-res plan
//! ([`correct_plan`]), so the ratios compare pixel work, not code
//! paths of different vintage.

use fisheye_core::engine::EngineSpec;
use fisheye_core::frame::{Frame, FrameCorrector, FrameFormat, ViewPlan};
use fisheye_core::plan::{correct_plan, PlanOptions, RemapPlan};
use fisheye_core::{Interpolator, RemapMap};
use pixmap::yuv::Yuv420;
use pixmap::{Image, Rgb8};

use crate::table::{f2, Table};
use crate::workloads::{default_resolution, median, resolution, time_median};
use crate::Scale;

/// Run the experiment.
pub fn run(scale: Scale) -> Table {
    let res = match scale {
        Scale::Quick => resolution("QVGA"),
        Scale::Full => default_resolution(scale),
    };
    let reps = 7;
    let spec = EngineSpec::Serial;
    let interp = Interpolator::Bilinear;
    let lens = fisheye_geom::FisheyeLens::equidistant_fov(res.w, res.h, 180.0);
    let view = fisheye_geom::PerspectiveView::centered(res.w, res.h, 90.0);
    let rgb: Image<Rgb8> = pixmap::scene::random_rgb(res.w, res.h, 3);
    let gray = rgb.map(pixmap::Gray8::from);
    let yuv = Frame::Yuv420(Yuv420::from_rgb(&rgb));

    let opts = PlanOptions::for_spec(&spec, interp);
    let full = RemapPlan::compile(&RemapMap::build(&lens, &view, res.w, res.h), opts.clone());
    let plan = ViewPlan::compile(FrameFormat::Yuv420, &lens, &view, res.w, res.h, &opts);
    let corrector = FrameCorrector::host_sequential(FrameFormat::Yuv420, plan, &spec, interp, 1)
        .expect("serial backend corrects yuv420");

    let mut run_gray = || {
        std::hint::black_box(correct_plan(&gray, &full, interp));
    };
    let mut run_yuv = || {
        std::hint::black_box(corrector.correct_frame(&yuv).expect("yuv420 correction"));
    };
    let mut run_rgb = || {
        std::hint::black_box(correct_plan(&rgb, &full, interp));
    };
    // warm every path, then time the three formats *interleaved*, rep
    // by rep, and take the ratio within each rep (T6's method): load
    // drift then hits numerator and denominator alike instead of
    // whichever format it happened to overlap
    run_gray();
    run_yuv();
    run_rgb();
    let mut samples: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut yuv_ratios = Vec::new();
    let mut rgb_ratios = Vec::new();
    for _ in 0..reps {
        let rep = [
            time_median(1, &mut run_gray),
            time_median(1, &mut run_yuv),
            time_median(1, &mut run_rgb),
        ];
        for (bucket, t) in samples.iter_mut().zip(rep) {
            bucket.push(t);
        }
        yuv_ratios.push(rep[1] / rep[0]);
        rgb_ratios.push(rep[2] / rep[0]);
    }
    let [t_gray, t_yuv, t_rgb] = samples.map(median);

    let mut table = Table::new(
        format!("F11 — color format cost ({})", res.name),
        &["format", "ms_per_frame", "vs_gray", "bytes_per_px"],
    );
    table.row(vec!["gray".into(), f2(t_gray * 1e3), f2(1.0), "1.0".into()]);
    table.row(vec![
        "yuv420".into(),
        f2(t_yuv * 1e3),
        f2(median(yuv_ratios)),
        "1.5".into(),
    ]);
    table.row(vec![
        "rgb".into(),
        f2(t_rgb * 1e3),
        f2(median(rgb_ratios)),
        "3.0".into(),
    ]);
    table.note("measured serial span walks; YUV420 = FrameCorrector over a full-res luma plan + half-res chroma plan, gray and RGB (3 interleaved channels) = one full-res plan");
    table.note("vs_gray is the median of per-rep ratios over interleaved runs, so slow machine-load drift cancels");
    table.note("expected shape: yuv420 ≈ 1.5x gray; rgb ≈ 2-3x gray");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_yuv_between_gray_and_rgb() {
        let t = run(Scale::Quick);
        let v = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[2]
                .parse()
                .unwrap()
        };
        let yuv = v("yuv420");
        let rgb = v("rgb");
        assert!(yuv > 1.0, "yuv must cost more than gray: {yuv}");
        assert!(yuv < rgb, "yuv {yuv} must be cheaper than rgb {rgb}");
        assert!(yuv < 2.4, "yuv overhead out of family: {yuv}");
    }
}
