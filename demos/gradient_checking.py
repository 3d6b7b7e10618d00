"""Walk through the finite-difference verification suite.

Every block in the library carries an analytic backward pass.  The suite
rebuilds each block on small double-precision shapes, perturbs every input
coordinate, and compares the finite-difference quotient with the recorded
gradient.  A deliberately corrupted backward pass shows the suite actually
catches bugs.
"""

from mirnet_forge.verify import run_gradcheck_suite


def show(reports, title):
    print(f"\n{title}")
    print(f"{'block':<18} {'max rel err':>12}  status")
    for r in reports:
        print(f"{r.name:<18} {r.max_rel_err:>12.3e}  {'ok' if r.passed else 'FAIL'}")


def main():
    print("Running the clean suite (tolerance 1e-4, double precision)...")
    show(run_gradcheck_suite(), "clean build")

    print("\nNow doubling the gradient of the dau case's input and rerunning.")
    print("Only the dau row fails: the control corrupts that case's own input,")
    print("not the DAUs nested in mrb, rrg and network:")
    show(run_gradcheck_suite(corrupt="dau"), "corrupted dau backward")


if __name__ == "__main__":
    main()
