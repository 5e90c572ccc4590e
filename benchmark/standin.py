"""A stand-in for an external LTL solver: it decides nothing.

It copies the file it is handed to the path given as its second argument,
for the benchmark to check, and prints a fixed token that the profile's
sat-pattern matches.

    python3 benchmark/standin.py INPUT COPY
"""

import shutil
import sys

if __name__ == "__main__":
    shutil.copyfile(sys.argv[1], sys.argv[2])
    print("STANDIN-RECEIVED")
