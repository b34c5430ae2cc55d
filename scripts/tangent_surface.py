"""Export the ruled discriminant surface of a space curve.

For n=3 the discriminant is the tangent developable; the OBJ output opens
in any mesh viewer. Higher dimensions fall back to CSV/JSON point clouds.
"""

import argparse

from osculant import curve_from_spec, export, sample_discriminant


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--curve", default="rational_normal:3",
                    help="model:n shorthand or a JSON spec path")
    ap.add_argument("--t-steps", type=int, default=96)
    ap.add_argument("--ruling-steps", type=int, default=24)
    ap.add_argument("--format", choices=("obj", "csv", "json"), default="obj")
    ap.add_argument("--out", default="discriminant.obj")
    args = ap.parse_args()

    c = curve_from_spec(args.curve)
    s = sample_discriminant(c, t_steps=args.t_steps,
                            ruling_steps=args.ruling_steps)
    path = export(s, args.format, args.out)
    rows = s.resolution[0] * s.resolution[1]
    print(f"{args.curve}: {rows} samples at resolution {s.resolution} -> {path}")


if __name__ == "__main__":
    main()
