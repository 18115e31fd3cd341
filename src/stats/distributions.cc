#include "stats/distributions.hh"

#include <cmath>

#include "support/logging.hh"

namespace rigor {
namespace stats {

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x * M_SQRT1_2);
}

double
normalQuantile(double p)
{
    if (p <= 0.0 || p >= 1.0)
        panic("normalQuantile: p must be in (0,1), got %g", p);

    // Acklam's rational approximation, |relative error| < 1.15e-9,
    // followed by one Halley refinement step.
    static const double a[] = {
        -3.969683028665376e+01, 2.209460984245205e+02,
        -2.759285104469687e+02, 1.383577518672690e+02,
        -3.066479806614716e+01, 2.506628277459239e+00,
    };
    static const double b[] = {
        -5.447609879822406e+01, 1.615858368580409e+02,
        -1.556989798598866e+02, 6.680131188771972e+01,
        -1.328068155288572e+01,
    };
    static const double c[] = {
        -7.784894002430293e-03, -3.223964580411365e-01,
        -2.400758277161838e+00, -2.549732539343734e+00,
        4.374664141464968e+00, 2.938163982698783e+00,
    };
    static const double d[] = {
        7.784695709041462e-03, 3.224671290700398e-01,
        2.445134137142996e+00, 3.754408661907416e+00,
    };
    const double p_low = 0.02425;
    const double p_high = 1.0 - p_low;

    double x;
    if (p < p_low) {
        double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= p_high) {
        double q = p - 0.5;
        double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
             1.0);
    } else {
        double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }

    // Halley refinement.
    double e = normalCdf(x) - p;
    double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
    x = x - u / (1.0 + 0.5 * x * u);
    return x;
}

double
lnGamma(double x)
{
    if (x <= 0.0)
        panic("lnGamma: requires x > 0, got %g", x);
    // Lanczos approximation, g = 7, n = 9.
    static const double coeff[] = {
        0.99999999999980993, 676.5203681218851, -1259.1392167224028,
        771.32342877765313, -176.61502916214059, 12.507343278686905,
        -0.13857109526572012, 9.9843695780195716e-6,
        1.5056327351493116e-7,
    };
    if (x < 0.5) {
        // Reflection formula.
        return std::log(M_PI / std::sin(M_PI * x)) - lnGamma(1.0 - x);
    }
    x -= 1.0;
    double sum = coeff[0];
    for (int i = 1; i < 9; ++i)
        sum += coeff[i] / (x + i);
    double t = x + 7.5;
    return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t +
        std::log(sum);
}

namespace {

/** Continued-fraction core of the incomplete beta (modified Lentz). */
double
betaContinuedFraction(double a, double b, double x)
{
    const int max_iter = 300;
    const double eps = 3.0e-15;
    const double fpmin = 1.0e-300;

    double qab = a + b;
    double qap = a + 1.0;
    double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < fpmin)
        d = fpmin;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= max_iter; ++m) {
        int m2 = 2 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < fpmin)
            d = fpmin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < fpmin)
            c = fpmin;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < fpmin)
            d = fpmin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < fpmin)
            c = fpmin;
        d = 1.0 / d;
        double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < eps)
            break;
    }
    return h;
}

} // namespace

double
incompleteBeta(double a, double b, double x)
{
    if (a <= 0.0 || b <= 0.0)
        panic("incompleteBeta: a,b must be positive");
    if (x < 0.0 || x > 1.0)
        panic("incompleteBeta: x must be in [0,1], got %g", x);
    if (x == 0.0)
        return 0.0;
    if (x == 1.0)
        return 1.0;

    double ln_front = lnGamma(a + b) - lnGamma(a) - lnGamma(b) +
        a * std::log(x) + b * std::log(1.0 - x);
    double front = std::exp(ln_front);
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaContinuedFraction(a, b, x) / a;
    return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double
studentTPdf(double t, double nu)
{
    if (nu <= 0.0)
        panic("studentTPdf: nu must be positive");
    double ln = lnGamma((nu + 1.0) / 2.0) - lnGamma(nu / 2.0) -
        0.5 * std::log(nu * M_PI) -
        (nu + 1.0) / 2.0 * std::log1p(t * t / nu);
    return std::exp(ln);
}

double
studentTCdf(double t, double nu)
{
    if (nu <= 0.0)
        panic("studentTCdf: nu must be positive");
    double x = nu / (nu + t * t);
    double p = 0.5 * incompleteBeta(nu / 2.0, 0.5, x);
    return t >= 0.0 ? 1.0 - p : p;
}

double
studentTQuantile(double p, double nu)
{
    if (p <= 0.0 || p >= 1.0)
        panic("studentTQuantile: p must be in (0,1), got %g", p);
    if (nu <= 0.0)
        panic("studentTQuantile: nu must be positive");

    if (p == 0.5)
        return 0.0;

    // Initial guess from the normal quantile, then bisection+Newton on
    // the CDF. The CDF is monotone so this always converges.
    double z = normalQuantile(p);
    double x = z;
    if (nu < 30.0) {
        // Cornish-Fisher-style expansion for a better start.
        double g1 = (z * z * z + z) / 4.0;
        double g2 = (5.0 * std::pow(z, 5) + 16.0 * z * z * z + 3.0 * z) /
            96.0;
        x = z + g1 / nu + g2 / (nu * nu);
    }

    // Bracket the root.
    double lo = x - 1.0, hi = x + 1.0;
    while (studentTCdf(lo, nu) > p)
        lo -= 2.0;
    while (studentTCdf(hi, nu) < p)
        hi += 2.0;

    for (int iter = 0; iter < 200; ++iter) {
        double mid = 0.5 * (lo + hi);
        double cdf = studentTCdf(mid, nu);
        // Newton step from the midpoint, clamped to the bracket.
        double pdf = studentTPdf(mid, nu);
        double next = mid;
        if (pdf > 1e-300) {
            next = mid - (cdf - p) / pdf;
            if (next <= lo || next >= hi)
                next = mid;
        }
        if (cdf > p)
            hi = mid;
        else
            lo = mid;
        if (hi - lo < 1e-12)
            return next;
    }
    return 0.5 * (lo + hi);
}

double
tCritical(double confidence, double nu)
{
    if (confidence <= 0.0 || confidence >= 1.0)
        panic("tCritical: confidence must be in (0,1), got %g", confidence);
    double alpha = 1.0 - confidence;
    return studentTQuantile(1.0 - alpha / 2.0, nu);
}

} // namespace stats
} // namespace rigor
