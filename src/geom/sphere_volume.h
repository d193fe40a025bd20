// Hypersphere volume geometry (Section 4.2 of the paper).
//
// The peer-relevance score (Eq. 1) and the k-NN radius estimator (Eq. 8)
// both need the fraction of a data cluster's sphere that a query sphere
// covers. This header implements:
//  * unit-ball volumes,
//  * spherical-cap volume fractions — both the paper's even-dimension series
//    (Eq. 5) and a generic closed form via the regularized incomplete beta
//    function (valid for every d >= 1, cross-checked in tests),
//  * the two-sphere intersection fraction (Eqs. 6-7) with all degenerate
//    cases (disjoint, tangent, containment) handled exactly.
//
// At d <= 4, the dims of every wavelet level at the default four layers,
// both fractions use closed-form caps of the half-angle sine² instead of
// incomplete beta functions (DESIGN.md §25); d >= 5 keeps the beta forms.

#ifndef HYPERM_GEOM_SPHERE_VOLUME_H_
#define HYPERM_GEOM_SPHERE_VOLUME_H_

namespace hyperm::geom {

/// Natural log of the volume of the unit ball in R^d (d >= 1).
double UnitBallLogVolume(int d);

/// Volume of a ball of radius r in R^d.
double BallVolume(int d, double r);

/// Fraction of a d-ball's volume lying in the spherical cap with half-angle
/// `alpha` at the center (alpha in [0, pi]; alpha = pi/2 gives exactly 1/2,
/// alpha = pi the whole ball). Uses the regularized incomplete beta closed
/// form for d >= 5 and the closed-form cap of sin^2(alpha / 2) below;
/// valid for every d >= 1.
double CapVolumeFraction(int d, double alpha);

/// The paper's Eq. 5 series for even d (alpha in [0, pi]). Provided for
/// fidelity and as a cross-check of CapVolumeFraction; the two agree to
/// ~1e-10 for even d.
double CapVolumeFractionEvenSeries(int d, double alpha);

/// The sine-power-integral form the paper omits "due to space constraints"
/// for odd d — implemented for every d >= 1 via the standard recurrence
///   S_d(a) = (-cos(a) sin^(d-1)(a) + (d-1) S_{d-2}(a)) / d
/// and Vol_cap/Vol_ball = Gamma(d/2+1) / (sqrt(pi) Gamma((d+1)/2)) * S_d(a).
/// Cross-checked against CapVolumeFraction for both parities in tests.
double CapVolumeFractionSineRecurrence(int d, double alpha);

/// Fraction of the volume of a sphere of radius `r` covered by a sphere of
/// radius `eps` whose center lies at distance `b` (Eqs. 6-7 generalized):
///
///   * 0 when the spheres are disjoint (b >= r + eps),
///   * 1 when the r-sphere is contained in the eps-sphere (b + r <= eps),
///   * (eps/r)^d when the eps-sphere is contained in the r-sphere,
///   * the two-cap lens volume over Vol(r) otherwise.
///
/// Requires d >= 1, r > 0, eps >= 0, b >= 0. Result is clamped to [0, 1]
/// and finite at every d: where (eps/r)^d overflows or the query's cap
/// underflows, the lens term is formed in log space. At d <= 4 the caps'
/// half angles come from the gaps r + eps - b, eps + b - r and r + b - eps,
/// so a proper lens covers a positive fraction unless these products
/// underflow.
double SphereIntersectionFraction(int d, double r, double eps, double b);

}  // namespace hyperm::geom

#endif  // HYPERM_GEOM_SPHERE_VOLUME_H_
