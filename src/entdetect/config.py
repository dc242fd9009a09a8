"""Central numerical tolerances and size limits."""

from dataclasses import dataclass

MAX_QUBITS = 4


@dataclass(frozen=True)
class Tolerances:
    """Absolute tolerances shared across the package.

    equality        matrix / state comparisons and constructor invariants
    psd             negative-eigenvalue slack allowed on density matrices
    pt_negativity   partial-transpose eigenvalues below -pt_negativity count
                    as genuinely negative (entangled verdict)
    zero_projection norms below this are treated as failed projections
    phase_denominator  minimum value of 1 - |bloch|^2 for phase estimation
    criterion(n)    (derived) an n-qubit detection needs a margin above
                    1 + criterion(n), so that no matrix validation accepts
                    is detected when it lies within these slacks of a
                    separable state. Say m passes validation on d = 2^n
                    dimensions. The correlations read only its Hermitian
                    part H, and validation accepts H when H + s I has a
                    Cholesky factor or, failing that, when no eigenvalue
                    of H lies below -s, with s = psd. Either test reaches
                    the same -s bound up to rounding of about 1e-16, far
                    inside the spare s below. Write H = P - N with
                    P / tr P separable and N >= 0 holding the (at most
                    d - 1) negative eigenvalues. The full correlations T
                    are linear in the matrix, and their Euclidean length is
                    at most tr P <= 1 + equality + (d - 1) s on P (a
                    separable state's is at most 1) and at most
                    sqrt(d tr N^2) <= sqrt(d (d - 1)) s on N. So |T(H)|
                    < 1 + equality + 2 d s, with more than s to spare: far
                    more than the rounding of a sum of 3^n squares.
    """

    equality: float = 1e-9
    psd: float = 1e-9
    pt_negativity: float = 1e-10
    zero_projection: float = 1e-12
    phase_denominator: float = 1e-6

    def criterion(self, n_qubits: int) -> float:
        d = 2**n_qubits
        return (1.0 + self.equality + 2 * d * self.psd) ** 2 - 1.0


TOL = Tolerances()
