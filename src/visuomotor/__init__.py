"""Active-vision prediction sandbox.

A small camera roams a grayscale image; an extreme learning machine
learns online to predict the next camera frame from the current frame
and the motor command, while a control policy balances exploring the
scene against staying where prediction already works.
"""

__version__ = "0.1.0"
