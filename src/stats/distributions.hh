/**
 * @file
 * Probability distribution functions needed by the rigorous methodology:
 * the standard normal and Student's t distribution (PDF, CDF, quantile).
 *
 * Implemented from first principles (Acklam's inverse-normal rational
 * approximation, regularized incomplete beta via Lentz's continued
 * fraction) so the framework has no external numeric dependencies and is
 * bit-reproducible across platforms.
 */

#ifndef RIGOR_STATS_DISTRIBUTIONS_HH
#define RIGOR_STATS_DISTRIBUTIONS_HH

namespace rigor {
namespace stats {

/** Standard normal cumulative distribution at x. */
double normalCdf(double x);

/**
 * Standard normal quantile (inverse CDF).
 * @param p probability in (0, 1).
 */
double normalQuantile(double p);

/** Natural log of the gamma function (Lanczos approximation). */
double lnGamma(double x);

/**
 * Regularized incomplete beta function I_x(a, b), computed with the
 * continued-fraction expansion (Numerical-Recipes-style betacf).
 */
double incompleteBeta(double a, double b, double x);

/** Student-t probability density with nu degrees of freedom. */
double studentTPdf(double t, double nu);

/** Student-t cumulative distribution with nu degrees of freedom. */
double studentTCdf(double t, double nu);

/**
 * Student-t quantile with nu degrees of freedom.
 * @param p probability in (0, 1).
 */
double studentTQuantile(double p, double nu);

/**
 * Two-sided critical value t* such that P(|T| <= t*) = confidence,
 * e.g. confidence = 0.95 gives the usual 95% interval multiplier.
 */
double tCritical(double confidence, double nu);

} // namespace stats
} // namespace rigor

#endif // RIGOR_STATS_DISTRIBUTIONS_HH
