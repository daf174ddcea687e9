//! # fisheye-geom — lens models, projections and calibration
//!
//! The geometric heart of the correction application:
//!
//! * [`vec3`] — minimal 3-D vector / rotation-matrix math (no external
//!   linear-algebra dependency).
//! * [`lens`] — radially symmetric fisheye lens models (equidistant,
//!   equisolid, stereographic, orthographic) mapping the angle θ
//!   between a scene ray and the optical axis to an image radius, plus
//!   projection/unprojection between rays and fisheye pixels.
//! * [`view`] — the *corrected* output camera: a virtual pinhole with
//!   pan/tilt/roll and zoom, as the paper's application exposes to the
//!   operator of a surveillance or automotive camera.
//! * [`brown_conrady`] — the classical polynomial distortion model
//!   (the baseline every fisheye paper compares against), with an
//!   iterative inverse and a least-squares fit against any lens model.
//! * [`calib`] — focal-length / model-selection calibration from point
//!   correspondences, standing in for the manufacturer calibration the
//!   paper assumes.
//!
//! Conventions: right-handed camera frame, optical axis = +Z, image x
//! to the right, image y downward. θ is measured from +Z; φ is the
//! azimuth `atan2(dy, dx)` in the image plane.

pub mod brown_conrady;
pub mod calib;
pub mod lens;
pub mod mount;
pub mod path;
pub mod projection;
pub mod rectify;
pub mod rig;
pub mod vec3;
pub mod view;

pub use brown_conrady::BrownConrady;
pub use lens::{FisheyeLens, LensModel};
pub use mount::{Mount, MountedLens};
pub use path::{Keyframe, PtzPath};
pub use projection::{OutputProjection, ProjectionRays};
pub use rectify::{row_alignment_error, RectifiedPair, StereoRig};
pub use rig::CameraRig;
pub use vec3::{Mat3, Vec3};
pub use view::{PerspectiveView, ViewRays};
