"""Citation table for proof traces.

Every deduction rule the prover applies carries a citation string
pointing at the statement of the underlying derivation it mechanizes.
The keys are stable rule identifiers; the values are the labels emitted
verbatim in traces, reports and rendered output.  The ``qr-registry`` step
has no entry here: it cites what the context's registry maps the bundle
to, one of the three ``qr-*`` strings below (``qr-ricci-flat`` on T of a
Ricci-flat context).
"""

CITATIONS = {
    # scalar machinery
    "conformal-weights": "Cor. confW, Eq. (bi)",
    "printed-formula": "Prop. final1 / Prop. final2",
    # q(R) registry entries
    "qr-trivial-bundle": "Cor. ricci (the Lie algebra acts by zero on the trivial bundle)",
    "qr-ricci-flat": "Cor. ricci (q(R) acts as Ricci curvature on T; the holonomy is Ricci-flat)",
    "qr-spinor-bundle": "Cor. ricci (spinor bundle splits off a rank-7 summand on which q(R) = s/16 = 0)",
    # vanishing rules
    "twistor-gap": "§4.2 (the summand occurs in neither adjacent form space)",
    "closedness": "§4.2 (du = 0 kills the operators into summands occurring in the (p+1)-forms)",
    "coclosedness": "§4.3 (d*u = 0 kills the operators into summands occurring in the (p-1)-forms)",
    "schur-factorization": "§4.2 (pr_i factors through the form space; the nonzero equivariant composition is assumed)",
    # integrability factors
    "integrability-killing": "Prop. integrabl",
    "integrability-star-killing": "Prop. integrabl (Hodge dual)",
    "integrability-middle-twistor": "Prop. integrabl (remark: twistor m-forms in dimension 2m)",
    # conclusions
    "sign-argument": "§4.2 (integrate the Weitzenboeck identity over the compact manifold)",
    "all-operators-vanish": "§4.2 (all twistor operators vanish, hence the form is parallel)",
    "mixed-signs": "§4.3 (residuals of mixed sign; the identity does not force vanishing)",
    "no-factor": "§2 (no integrability factor for generic twistor forms in this degree)",
    # degree-level reductions
    "holonomy-decomposition": "Lemma holdeco",
    "componentwise-middle-twistor": "§4.1 (remark after Prop. integrabl: any component is again a twistor form)",
    "irreducible-form-space": "(definition: the form space is irreducible, the form is a section of its single component)",
    "hodge-duality": "§2 (the Hodge star interchanges Killing and *-Killing forms)",
    "twistor-2form-coclosed": "§4 (on a compact Ricci-flat manifold any twistor 2-form is coclosed)",
    "unjustified-split": "§4.1 (no componentwise reduction applies to generic twistor forms in this degree)",
    # theorems
    "theorem-g2": "Theorem main1",
    "theorem-spin7": "Theorem main2",
}

HYPOTHESES = (
    "compact Riemannian manifold",
    "holonomy group exactly the stated one",
)
